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
//!    corridor dataset over 99 % of updates join an existing group),
//!    preserving each voxel's update order, which matters because
//!    clamped log-odds additions do not commute once saturated;
//! 2. sorts only the *unique* keys by Morton code — orders of magnitude
//!    fewer elements than sorting the raw update stream;
//! 3. walks the tree with a **cached descent**: consecutive sorted keys
//!    share a root-path prefix, so only the changed suffix is descended,
//!    and each group's whole delta sequence replays on the leaf in hand;
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

use crate::node::NIL;
use crate::tree::OccupancyOctree;

/// A voxel key packed into one word — the form the group-by table
/// hashes with a single multiply.
#[inline]
fn packed_key(key: VoxelKey) -> u64 {
    ((key.x as u64) << 32) | ((key.y as u64) << 16) | key.z as u64
}

/// Sentinel id marking an empty [`GroupTable`] slot (batches are capped
/// at `u32::MAX` updates, so no real group reaches it).
const EMPTY_SLOT: u32 = u32::MAX;

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
/// allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchScratch {
    /// Packed voxel key → group id.
    pub(crate) group_of: GroupTable,
    /// Per group: `(morton, key)`.
    pub(crate) keys: Vec<(u64, VoxelKey)>,
    /// Per group: range start in `bits` (built from counts).
    pub(crate) starts: Vec<u32>,
    /// Per group: scatter cursor during grouping, then range end.
    pub(crate) cursors: Vec<u32>,
    /// Bit-encoded hit/miss sequences, grouped by key, per-key arrival
    /// order preserved. One byte per update instead of a log-odds value:
    /// the scatter pass is the batch engine's main cache-miss producer,
    /// so shrinking its element 4× is a measurable engine-row win.
    pub(crate) bits: Vec<u8>,
    /// Per update: its group id (avoids a second hash lookup in the
    /// scatter pass).
    pub(crate) ids: Vec<u32>,
    /// Group ids sorted by Morton code.
    pub(crate) order: Vec<u32>,
}

/// The receiving end of
/// [`apply_update_stream`](OccupancyOctree::apply_update_stream): a
/// concrete (monomorphizable) sink, so the streaming group-by inlines
/// into the emitter's hot loop — a `dyn FnMut` here would cost an
/// indirect call per update.
#[derive(Debug)]
pub struct UpdateSink<'a> {
    scratch: &'a mut BatchScratch,
}

impl UpdateSink<'_> {
    /// Feeds one hit/miss update into the streaming batch.
    ///
    /// # Panics
    ///
    /// Panics when the stream exceeds `u32::MAX / 2` updates.
    #[inline]
    pub fn push(&mut self, u: VoxelUpdate) {
        let scratch = &mut *self.scratch;
        assert!(
            scratch.ids.len() < (u32::MAX >> 1) as usize,
            "batch too large to index with u32"
        );
        let new_id = scratch.keys.len() as u32;
        let id = match scratch.group_of.get_or_insert(packed_key(u.key), new_id) {
            Some(existing) => existing,
            None => {
                scratch.keys.push((u.key.morton_code(), u.key));
                scratch.cursors.push(0);
                new_id
            }
        };
        scratch.cursors[id as usize] += 1;
        scratch.ids.push((id << 1) | u32::from(u.hit));
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
        self.apply_batch_with(updates, None)
            // omu-lint: allow(no-panic) — infallible: `shards: None` selects
            // the sequential walk, which spawns no workers and so cannot
            // report a `TaskPanic`.
            .expect("the sequential walk spawns no workers")
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
        self.apply_batch_with(updates, Some(shards))
    }

    /// The batch engine core: hashed group-by-key, Morton sort of the
    /// unique keys, then one cached-descent walk replaying each group's
    /// hit/miss sequence with deferred finishing — sequential
    /// (`parallel_shards: None`) or subtree-sharded across threads. The
    /// scatter stores one byte per update and never materializes a
    /// log-odds delta; the walk decodes the bytes against the resolved
    /// hit/miss deltas at replay time.
    fn apply_batch_with(
        &mut self,
        updates: &[VoxelUpdate],
        parallel_shards: Option<usize>,
    ) -> Result<BatchStats, TaskPanic> {
        let mut stats = BatchStats {
            updates: updates.len() as u64,
            ..BatchStats::default()
        };
        if updates.is_empty() {
            return Ok(stats);
        }
        assert!(
            updates.len() <= u32::MAX as usize,
            "batch too large to index with u32"
        );

        // The scratch moves out of `self` for the duration of the walk so
        // tree mutation and scratch reads can borrow independently.
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        scratch.group_of.clear();
        scratch.keys.clear();
        scratch.starts.clear();
        scratch.cursors.clear();
        scratch.order.clear();

        // Pass 1: group updates by key (insertion order numbers the
        // groups) and remember each update's group id.
        scratch.ids.clear();
        scratch.ids.reserve(updates.len());
        for u in updates {
            let key = u.key;
            let new_id = scratch.keys.len() as u32;
            let id = match scratch.group_of.get_or_insert(packed_key(key), new_id) {
                Some(existing) => existing,
                None => {
                    scratch.keys.push((key.morton_code(), key));
                    scratch.cursors.push(0);
                    new_id
                }
            };
            scratch.cursors[id as usize] += 1;
            scratch.ids.push(id);
        }

        // Turn counts into ranges: starts[g]..cursors[g] will delimit
        // group g's bits once the scatter pass is done.
        let mut offset = 0u32;
        scratch.starts.reserve(scratch.keys.len());
        for cursor in &mut scratch.cursors {
            let count = *cursor;
            scratch.starts.push(offset);
            *cursor = offset;
            offset += count;
        }

        // Pass 2: scatter hit/miss bits into their group's range. Scan
        // order is preserved within each group, which keeps clamped
        // additions bit-identical to the scalar replay. One byte per
        // update (decoded at replay time) is the difference between a 4×
        // larger and a 1× working set on the engine's main cache-miss
        // producer.
        scratch.bits.clear();
        scratch.bits.resize(updates.len(), 0);
        for (u, &id) in updates.iter().zip(&scratch.ids) {
            let cursor = &mut scratch.cursors[id as usize];
            scratch.bits[*cursor as usize] = u8::from(u.hit);
            *cursor += 1;
        }

        self.finish_grouped_batch(scratch, &mut stats, |tree, scratch, stats, created| {
            match parallel_shards {
                None => {
                    tree.walk_sequential(scratch, stats, created);
                    Ok(())
                }
                Some(shards) => tree.walk_sharded(scratch, stats, created, shards),
            }
        })?;
        Ok(stats)
    }

    /// The streaming form of [`apply_update_batch`](Self::apply_update_batch):
    /// `fill` is handed an [`UpdateSink`] and pushes hit/miss updates
    /// through it one at a time; the group-by pass runs as the stream
    /// arrives, so the update stream is never materialized. The per-update
    /// observation bit travels packed into the low bit of the group-id
    /// word, which is also what lets the scatter pass run without a
    /// second look at the stream. The resulting tree is bit-identical to
    /// collecting the same stream into a slice and calling
    /// `apply_update_batch`.
    ///
    /// Returns `fill`'s result alongside the batch statistics (an empty
    /// stream touches nothing and reports zero updates).
    pub fn apply_update_stream<R>(
        &mut self,
        fill: impl FnOnce(&mut UpdateSink<'_>) -> R,
    ) -> (R, BatchStats) {
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        scratch.group_of.clear();
        scratch.keys.clear();
        scratch.starts.clear();
        scratch.cursors.clear();
        scratch.order.clear();
        scratch.ids.clear();

        // Pass 1, online: group updates by key as they stream in.
        let result = fill(&mut UpdateSink {
            scratch: &mut scratch,
        });

        let mut stats = BatchStats {
            updates: scratch.ids.len() as u64,
            ..BatchStats::default()
        };
        if scratch.ids.is_empty() {
            self.batch_scratch = scratch;
            return (result, stats);
        }

        // Turn counts into ranges (see `apply_batch_with`).
        let mut offset = 0u32;
        scratch.starts.reserve(scratch.keys.len());
        for cursor in &mut scratch.cursors {
            let count = *cursor;
            scratch.starts.push(offset);
            *cursor = offset;
            offset += count;
        }

        // Scatter straight from the packed id words.
        scratch.bits.clear();
        scratch.bits.resize(scratch.ids.len(), 0);
        {
            let ids = &scratch.ids;
            let cursors = &mut scratch.cursors;
            let bits = &mut scratch.bits;
            for &packed in ids {
                let cursor = &mut cursors[(packed >> 1) as usize];
                bits[*cursor as usize] = (packed & 1) as u8;
                *cursor += 1;
            }
        }

        self.finish_grouped_batch(scratch, &mut stats, |tree, scratch, stats, created| {
            tree.walk_sequential(scratch, stats, created)
        });
        (result, stats)
    }

    /// Shared tail of the batched paths, from grouped-and-scattered
    /// scratch to finished tree: Morton sort of the unique keys, the
    /// cached-descent `walk` (handed the tree, the scratch, the stats and
    /// whether the root was just created), and counter accounting.
    fn finish_grouped_batch<R>(
        &mut self,
        mut scratch: BatchScratch,
        stats: &mut BatchStats,
        walk: impl FnOnce(&mut Self, &BatchScratch, &mut BatchStats, bool) -> R,
    ) -> R {
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

        let walked = walk(self, &scratch, stats, root_just_created);

        // Scratch restore and counter accounting run even when a worker
        // panicked — the tree is structurally finished either way.
        self.batch_scratch = scratch;
        self.counters.batch_updates += stats.updates;
        self.counters.batch_coalesced += stats.coalesced;
        self.counters.batch_reused_levels += stats.reused_levels;
        self.counters.batch_deferred_finishes += stats.deferred_finishes;
        walked
    }

    /// The sequential cached-descent walk over the grouped, Morton-sorted
    /// batch.
    fn walk_sequential(
        &mut self,
        scratch: &BatchScratch,
        stats: &mut BatchStats,
        mut root_just_created: bool,
    ) {
        let root = self.root;
        let mut ctx = self.walk_ctx();

        // path[d] = node at depth d along the current key's root path.
        let mut path = [NIL; TREE_DEPTH as usize + 1];
        path[0] = root;
        let mut prev: Option<VoxelKey> = None;

        for &id in &scratch.order {
            let (_, key) = scratch.keys[id as usize];
            let resume_depth = match prev {
                None => 0,
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
            let mut just_created = resume_depth == 0 && root_just_created;
            for depth in resume_depth..TREE_DEPTH as usize {
                let (child, created) = ctx.step_down(node, key, depth as u8, just_created);
                just_created = created;
                node = child;
                path[depth + 1] = node;
                stats.descended_levels += 1;
            }
            root_just_created = false;

            // Replay the group's whole hit/miss sequence on the leaf in
            // hand (one leaf-row load and store for the whole sequence).
            let range = scratch.starts[id as usize] as usize..scratch.cursors[id as usize] as usize;
            ctx.apply_leaf_bits(node, key, &scratch.bits[range], just_created);
            prev = Some(key);
        }

        // Flush: finish the last path all the way to the root.
        for d in (0..TREE_DEPTH as usize).rev() {
            ctx.finish_node(path[d], d as u8);
            stats.deferred_finishes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{OctreeF32, OctreeFixed};
    use omu_geometry::Occupancy;

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
