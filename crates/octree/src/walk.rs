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
        let params = self.resolved;
        let slot = self.store.leaf_value_mut(leaf);
        let old = *slot;
        let value = old.add(delta).clamp_to(params.clamp_min, params.clamp_max);
        *slot = value;
        self.counters.leaf_updates += 1;
        if let Some(changed) = &mut self.changed {
            // Change detection: record newly observed voxels and
            // occupied↔free classification flips.
            if just_created || params.classify(old) != params.classify(value) {
                changed.record(key);
            }
        }
        value
    }

    /// Replays one voxel's whole hit/miss sequence on a located depth-16
    /// voxel, given in run-length form: for each entry of
    /// `misses_before_hits`, that many misses and then one hit, and
    /// finally `trailing_misses` misses — the voxel's updates in arrival
    /// order, as the batch engine groups them. The value stays in a
    /// register across the sequence (one leaf-row load, one store).
    ///
    /// A miss run ends as soon as one miss leaves the value bit-for-bit
    /// unchanged: the clamped add is a function of the value alone, so
    /// every later miss of that run is a no-op as well and flips nothing.
    /// A free voxel already pinned at `clamp_min` therefore costs one step
    /// per miss run, not one per miss. The test compares bit
    /// patterns, never `==`, so a `-0.0` that the next miss would turn
    /// into `+0.0` does not end a run. Hits always apply.
    ///
    /// Every update counts in `leaf_updates`, applied or skipped, and
    /// change detection classifies every applied step: value, counters
    /// and changed-key set equal one [`Self::apply_leaf_delta`] per
    /// update. Returns the final value.
    pub fn apply_leaf_runs(
        &mut self,
        leaf: u32,
        key: VoxelKey,
        misses_before_hits: &[u32],
        trailing_misses: u32,
        just_created: bool,
    ) -> V {
        let params = self.resolved;
        let track = self.changed.is_some();
        // A just-created voxel is a change on its first update, whatever
        // that update does to the value.
        let mut flipped = just_created;
        let mut step = |value: V, delta: V| {
            let next = value
                .add(delta)
                .clamp_to(params.clamp_min, params.clamp_max);
            if track {
                flipped |= params.classify(value) != params.classify(next);
            }
            next
        };

        let runs = misses_before_hits
            .iter()
            .map(|&misses| (misses, true))
            .chain(std::iter::once((trailing_misses, false)));
        let mut updates = 0u64;
        let slot = self.store.leaf_value_mut(leaf);
        let mut value = *slot;
        for (misses, then_hit) in runs {
            updates += u64::from(misses) + u64::from(then_hit);
            for _ in 0..misses {
                let next = step(value, params.miss);
                if next.same_bits(value) {
                    break;
                }
                value = next;
            }
            if then_hit {
                value = step(value, params.hit);
            }
        }
        *slot = value;
        self.counters.leaf_updates += updates;
        if flipped {
            if let Some(changed) = &mut self.changed {
                changed.record(key);
            }
        }
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
    /// "The same value" means the same bit pattern, never `==`: `+0.0`
    /// and `-0.0` siblings stay apart, so a later expand restores each
    /// sibling's exact bits and eager (scalar) and deferred (batch)
    /// pruning build the same tree.
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
                if !kid.same_bits(first) {
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
                if !child.is_leaf() || !child.value.same_bits(first.value) {
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
