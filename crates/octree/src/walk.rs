//! The storage-generic update walk: descent, expansion, leaf update,
//! parent refresh and pruning, written once over [`NodeStore`] so that
//! the same code drives the whole-tree scalar/batched paths (store =
//! [`Arena`](crate::arena::Arena)) and the subtree-sharded parallel
//! workers (store = the branch store in the `shard` module, one branch
//! owned per thread).
//!
//! Operations take the node's tree depth alongside its handle: depth
//! decides whether a node's children live in a node row (8 more
//! `Node<V>`s) or, for depth-15 parents, in a value-only leaf row — see
//! the [`arena`](crate::arena) module for the two-tier sibling-row
//! layout. The walks all track depth anyway, so this costs nothing.
//!
//! Everything an update mutates besides node storage — operation
//! counters, the change-detection log — is carried in the context, so a
//! worker can run with thread-local instances that merge
//! deterministically afterwards.

use omu_geometry::{LogOdds, ResolvedParams, VoxelKey, TREE_DEPTH};
use rustc_hash::FxHashSet;

use crate::arena::{handle, NodeStore};
use crate::counters::OpCounters;
use crate::node::Node;

/// Depth of nodes whose children are depth-16 voxels stored in leaf rows.
const LEAF_PARENT_DEPTH: u8 = TREE_DEPTH - 1;

/// Sink for change-detection events. The tree proper uses the keyed set;
/// shard workers log into a plain `Vec` that is merged into the set after
/// the join (insertion is idempotent, so merge order is irrelevant).
pub(crate) trait ChangeLog {
    /// Records that `key`'s occupancy classification changed.
    fn record(&mut self, key: VoxelKey);
}

impl ChangeLog for FxHashSet<VoxelKey> {
    #[inline]
    fn record(&mut self, key: VoxelKey) {
        self.insert(key);
    }
}

impl ChangeLog for Vec<VoxelKey> {
    #[inline]
    fn record(&mut self, key: VoxelKey) {
        self.push(key);
    }
}

/// Borrowed context for one sequence of update-walk operations.
pub(crate) struct WalkCtx<'a, S, V: LogOdds, C: ChangeLog> {
    pub store: &'a mut S,
    pub resolved: ResolvedParams<V>,
    pub pruning_enabled: bool,
    pub counters: &'a mut OpCounters,
    pub changed: Option<&'a mut C>,
}

impl<S: NodeStore<V>, V: LogOdds, C: ChangeLog> WalkCtx<'_, S, V, C> {
    /// One level of descent towards `key`: returns the child at
    /// `depth + 1` on the key's root path, creating or expanding as
    /// OctoMap's `updateNodeRecurs` would.
    ///
    /// `just_created` must be true when `node` was freshly created during
    /// the current descent (a fresh branch grows one child per level; a
    /// pre-existing childless node is a pruned leaf that must expand into
    /// all 8). The returned flag is the same property for the child.
    #[inline]
    pub fn step_down(
        &mut self,
        node: u32,
        key: VoxelKey,
        depth: u8,
        just_created: bool,
    ) -> (u32, bool) {
        let pos = key.child_index_at(depth).index();
        let n = *self.store.node(node);
        let mut created = false;
        let child = if n.has_child(pos) {
            // The common case is one arithmetic step plus the COW check:
            // the children row must be writable in the current epoch
            // before the walk descends into (and mutates) it. Without
            // pinned snapshots this is one stamp compare.
            let row = self
                .store
                .ensure_children_current(node, depth == LEAF_PARENT_DEPTH);
            handle(self.store.child_shard(node), row, pos)
        } else if n.is_leaf() && !just_created {
            // A pruned leaf covers this key: expand it so the update
            // applies to the single target voxel only.
            self.expand_node(node, depth);
            self.store.child_of(node, pos)
        } else {
            // Fresh branch: create just the requested child.
            created = true;
            self.create_child(node, pos, depth)
        };
        self.counters.traverse_steps += 1;
        (child, created)
    }

    /// Applies one clamped log-odds addition to a located depth-16 voxel
    /// (eq. 2), recording change detection, and returns the new value.
    #[inline]
    pub fn apply_leaf_delta(
        &mut self,
        leaf: u32,
        key: VoxelKey,
        delta: V,
        just_created: bool,
    ) -> V {
        self.apply_leaf_deltas(leaf, key, &[delta], just_created)
    }

    /// Replays a whole per-voxel delta sequence on a located depth-16
    /// voxel: the value stays in a register across the sequence (one
    /// leaf-row load, one store), with per-delta counters and change
    /// detection identical to applying each delta individually. Returns
    /// the final value.
    pub fn apply_leaf_deltas(
        &mut self,
        leaf: u32,
        key: VoxelKey,
        deltas: &[V],
        just_created: bool,
    ) -> V {
        self.replay_leaf(leaf, key, just_created, deltas.iter().copied())
    }

    /// [`Self::apply_leaf_deltas`] over a bit-encoded hit/miss sequence,
    /// decoded against the resolved hit/miss deltas (the batch engine
    /// scatters one byte per update instead of a full log-odds value; see
    /// the `batch` module).
    pub fn apply_leaf_bits(
        &mut self,
        leaf: u32,
        key: VoxelKey,
        bits: &[u8],
        just_created: bool,
    ) -> V {
        let (hit, miss) = (self.resolved.hit, self.resolved.miss);
        if self.changed.is_none() {
            // Lane-friendly replay for the common no-change-detection
            // case: the hit/miss branch becomes a two-entry table index
            // and `clamp_to` is comparison-based, so the loop body is
            // branch-free (select + min/max) and the value never leaves a
            // register. This is the batch engine's hottest loop — one
            // iteration per voxel update.
            let clamp_min = self.resolved.clamp_min;
            let clamp_max = self.resolved.clamp_max;
            let lut = [miss, hit];
            let slot = self.store.leaf_value_mut(leaf);
            let mut value = *slot;
            for &b in bits {
                value = value
                    .add(lut[usize::from(b != 0)])
                    .clamp_to(clamp_min, clamp_max);
            }
            *slot = value;
            self.counters.leaf_updates += bits.len() as u64;
            return value;
        }
        self.replay_leaf(
            leaf,
            key,
            just_created,
            bits.iter().map(|&b| if b != 0 { hit } else { miss }),
        )
    }

    fn replay_leaf(
        &mut self,
        leaf: u32,
        key: VoxelKey,
        just_created: bool,
        deltas: impl Iterator<Item = V>,
    ) -> V {
        let slot = self.store.leaf_value_mut(leaf);
        let mut value = *slot;
        let mut steps = 0u64;
        match &mut self.changed {
            None => {
                for delta in deltas {
                    steps += 1;
                    value = value
                        .add(delta)
                        .clamp_to(self.resolved.clamp_min, self.resolved.clamp_max);
                }
            }
            Some(changed) => {
                // Change detection: record newly observed voxels and
                // occupied↔free classification flips.
                for delta in deltas {
                    let old = value;
                    value = value
                        .add(delta)
                        .clamp_to(self.resolved.clamp_min, self.resolved.clamp_max);
                    let flipped = (steps == 0 && just_created)
                        || self.resolved.classify(old) != self.resolved.classify(value);
                    steps += 1;
                    if flipped {
                        changed.record(key);
                    }
                }
            }
        }
        self.counters.leaf_updates += steps;
        *slot = value;
        value
    }

    /// Finishes an inner node at `depth` after updates below it: prune
    /// when enabled and collapsible, otherwise refresh the value to the
    /// max over children. Returns `Some(value)` when the node was pruned.
    ///
    /// The scalar path calls this for every path node after every update;
    /// the batch engines defer it to once per touched node (see
    /// [`apply_update_batch`](crate::tree::OccupancyOctree::apply_update_batch)).
    #[inline]
    pub fn finish_node(&mut self, node: u32, depth: u8) -> Option<V> {
        if self.pruning_enabled && self.try_prune(node, depth) {
            Some(self.store.node(node).value)
        } else {
            self.refresh_parent_value(node, depth);
            None
        }
    }

    /// Expands a pruned leaf at `depth` into 8 children carrying the
    /// parent's value (OctoMap `expandNode`). Filling happens inside the
    /// row allocation — one sibling-row write.
    pub fn expand_node(&mut self, node: u32, depth: u8) {
        debug_assert!(self.store.node(node).is_leaf(), "expanding an inner node");
        let value = self.store.node(node).value;
        let row = if depth == LEAF_PARENT_DEPTH {
            self.store.alloc_leaf_row_for(node, value)
        } else {
            self.store.alloc_row_for(node, Node::leaf(value))
        };
        self.store.node_mut(node).set_children(row, 0xFF);
        self.counters.expands += 1;
        self.counters.node_creations += 8;
    }

    /// Creates a single child (log-odds 0, "just created") under `node`
    /// at `depth`, allocating the sibling row on first use.
    fn create_child(&mut self, node: u32, pos: usize, depth: u8) -> u32 {
        let leaf_tier = depth == LEAF_PARENT_DEPTH;
        let n = *self.store.node(node);
        let child;
        if n.is_leaf() {
            let row = if leaf_tier {
                self.store.alloc_leaf_row_for(node, V::ZERO)
            } else {
                self.store.alloc_row_for(node, Node::leaf(V::ZERO))
            };
            self.store.node_mut(node).set_children(row, 1 << pos);
            child = handle(self.store.child_shard(node), row, pos);
            // Row slots come pre-filled with the zero value.
        } else {
            // Writing a slot of an existing row: make it COW-current
            // first (the row index may move under a pinned snapshot).
            let row = self.store.ensure_children_current(node, leaf_tier);
            child = handle(self.store.child_shard(node), row, pos);
            if leaf_tier {
                *self.store.leaf_value_mut(child) = V::ZERO;
            } else {
                *self.store.node_mut(child) = Node::leaf(V::ZERO);
            }
            self.store.node_mut(node).add_child(pos);
        }
        self.counters.node_creations += 1;
        child
    }

    /// Attempts to prune a node at `depth` (OctoMap `pruneNode`):
    /// succeeds when all 8 children exist, none has children of its own,
    /// and all hold the same value. On success the children's sibling row
    /// is recycled and `node` becomes a leaf carrying their common value.
    ///
    /// Returns `true` when the node was pruned.
    pub fn try_prune(&mut self, node: u32, depth: u8) -> bool {
        self.counters.prune_checks += 1;
        let n = *self.store.node(node);
        if n.is_leaf() {
            return false;
        }
        let shard = self.store.child_shard(node);
        let row = n.row();

        if depth == LEAF_PARENT_DEPTH {
            // Children are depth-16 voxels: leaves by construction, so
            // only value equality gates the prune. One row borrow covers
            // all 8 siblings.
            if !n.has_child(0) {
                return false;
            }
            let kids = self.store.leaf_row(shard, row);
            self.counters.prune_child_reads += 1;
            let first = kids[0];
            for (pos, &kid) in kids.iter().enumerate().skip(1) {
                if !n.has_child(pos) {
                    return false;
                }
                self.counters.prune_child_reads += 1;
                if kid != first {
                    return false;
                }
            }
            self.store.free_leaf_row_of(node);
            let n = self.store.node_mut(node);
            n.clear_children();
            n.value = first;
        } else {
            if !n.has_child(0) {
                return false;
            }
            let kids = self.store.node_row(shard, row);
            self.counters.prune_child_reads += 1;
            let first = kids[0];
            if !first.is_leaf() {
                return false;
            }
            for (pos, child) in kids.iter().enumerate().skip(1) {
                if !n.has_child(pos) {
                    return false;
                }
                self.counters.prune_child_reads += 1;
                if !child.is_leaf() || child.value != first.value {
                    return false;
                }
            }
            self.store.free_row_of(node);
            let n = self.store.node_mut(node);
            n.clear_children();
            n.value = first.value;
        }
        self.counters.prunes += 1;
        true
    }

    /// Recomputes an inner node's value at `depth` as the maximum over
    /// its existing children (OctoMap `updateOccupancyChildren`) — one
    /// sibling-row sweep.
    pub fn refresh_parent_value(&mut self, node: u32, depth: u8) {
        let n = *self.store.node(node);
        if n.is_leaf() {
            return;
        }
        let shard = self.store.child_shard(node);
        let row = n.row();
        let mut acc: Option<V> = None;
        let mut reads = 0;
        if depth == LEAF_PARENT_DEPTH {
            let kids = self.store.leaf_row(shard, row);
            for (pos, &v) in kids.iter().enumerate() {
                if n.has_child(pos) {
                    reads += 1;
                    acc = Some(match acc {
                        Some(a) => V::max_of(a, v),
                        None => v,
                    });
                }
            }
        } else {
            let kids = self.store.node_row(shard, row);
            for (pos, kid) in kids.iter().enumerate() {
                if n.has_child(pos) {
                    reads += 1;
                    acc = Some(match acc {
                        Some(a) => V::max_of(a, kid.value),
                        None => kid.value,
                    });
                }
            }
        }
        if let Some(m) = acc {
            self.store.node_mut(node).value = m;
            self.counters.parent_updates += 1;
            self.counters.parent_child_reads += reads;
        }
    }
}
