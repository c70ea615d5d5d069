//! Branch-sharded sibling-row arenas with row free lists, epoch stamps
//! and row-granular copy-on-write.
//!
//! Storage is partitioned the way the OMU hardware partitions its T-Mem:
//! one independently-ownable [`ArenaShard`] per first-level tree branch
//! (the top-3-bit Morton group that also selects the PE), plus a *spine*
//! shard holding the root and the root's children row. A node handle
//! encodes its shard in the top [`SHARD_BITS`] bits, so the full-tree
//! [`Arena`] can route any access while a branch shard can be split off
//! (`take_branch`) and handed to a worker thread that owns its whole
//! subtree — the software analogue of a PE owning its banked memory.
//!
//! Each shard keeps two row arenas:
//!
//! - **node rows** (`[Node<V>; 8]`, 64 B for `f32`): the sibling rows of
//!   inner levels — children of nodes at depths 0‥14;
//! - **leaf rows** (`[V; 8]`, 32 B for `f32`): the children of depth-15
//!   nodes, which are depth-16 voxels and can never have children, so
//!   they carry no pointer word.
//!
//! A node *handle* is `shard:4 | row:25 | octant:3` — the node lives in
//! slot `octant` of sibling row `row`. Whether the row is a node row or
//! a leaf row is decided by tree depth, which every traversal already
//! tracks (depth-16 handles index leaf rows, everything else node rows).
//!
//! Freed rows are recycled (LIFO) — the analogue of the OMU prune
//! address manager's stack reuse, and the reason long mapping runs do
//! not grow memory monotonically even though pruning constantly deletes
//! and re-creates nodes.
//!
//! ## Epochs and copy-on-write (snapshot support)
//!
//! Rows live in chunked, stable-address storage ([`ChunkedVec`], see the
//! `snapshot` module) so a pinned [`Snapshot`](crate::Snapshot) can keep
//! dereferencing them while the live arena grows. Each row carries a
//! *stamp*: the epoch in which it was last made writable. The write path
//! routes the first touch of a row per epoch through
//! [`ArenaShard::make_row_current`], which
//!
//! - mutates in place when no pinned snapshot can reach the row
//!   (`stamp > cow_max_pin`, or no pins at all), merely restamping it;
//! - otherwise **copies** the row to a fresh slot and *retires* the
//!   original, tagged with the current epoch.
//!
//! Retired rows return to the free lists only once every live pin is at
//! least as new as the retire epoch ([`ArenaShard::reclaim`]): a
//! snapshot pinned at epoch `P` was captured *after* all epoch-`P`
//! writes, so it cannot reference a row retired during `P` or earlier…
//! only pins strictly older than the retire epoch can. The writer's only
//! coupling to readers is one atomic load of the pin summary per write
//! entry ([`Arena::sync_pins`]); it never blocks.
//!
//! The root's own row (spine row 0) is COW-exempt: snapshots carry the
//! root node by value and never dereference that row, which keeps the
//! root handle stable forever.
//!
//! The packed child reference in [`Node`] caps rows at 2²⁴ − 1 per shard
//! (≈134 M nodes / ≈1 GB per first-level octant, ≈1 B nodes total).
//! Exhausting a shard panics, like the old global arena did; maps
//! anywhere near that size exhaust host memory first.

use std::collections::VecDeque;

use crate::node::{LeafRow, Node, NodeRow, MAX_ROW, NIL};
use crate::snapshot::{ChunkedVec, PinGuard, PinHandle, PinRegistry, Rows, NO_PINS};
use crate::SnapshotStats;

/// Bits of a node handle reserved for the shard id.
const SHARD_BITS: u32 = 4;
/// Bits of a node handle addressing the octant within a sibling row.
const OCT_BITS: u32 = 3;
/// Bits addressing a row within one shard.
const ROW_BITS: u32 = 32 - SHARD_BITS - OCT_BITS;
const ROW_MASK: u32 = (1 << ROW_BITS) - 1;

/// Number of branch shards (one per first-level octree branch).
pub(crate) const NUM_BRANCHES: usize = 8;
/// Shard id of the spine (holds the root node and the root's children).
pub(crate) const SPINE_SHARD: usize = NUM_BRANCHES;
/// Shards per tree: the branch shards plus the spine.
pub(crate) const NUM_SHARDS: usize = SPINE_SHARD + 1;
/// Spine row holding the root node (slot 0); the root's children row is
/// whatever the spine allocates next.
const ROOT_ROW: u32 = 0;

/// Builds a node handle from its shard, sibling row and octant.
#[inline]
pub(crate) fn handle(shard: usize, row: u32, oct: usize) -> u32 {
    debug_assert!(shard <= SPINE_SHARD && row <= MAX_ROW && oct < 8);
    ((shard as u32) << (ROW_BITS + OCT_BITS)) | (row << OCT_BITS) | oct as u32
}

/// Shard id of a node handle.
#[inline]
pub(crate) fn shard_of(h: u32) -> usize {
    (h >> (ROW_BITS + OCT_BITS)) as usize
}

/// Sibling-row index of a node handle (within its shard).
#[inline]
pub(crate) fn row_of(h: u32) -> u32 {
    (h >> OCT_BITS) & ROW_MASK
}

/// Octant (slot within the sibling row) of a node handle.
#[inline]
pub(crate) fn oct_of(h: u32) -> usize {
    (h & 7) as usize
}

/// Children placement by pure handle arithmetic: the parent's shard,
/// except below the spine — the root's children stay in the spine (they
/// form one sibling row), and a depth-1 node's children land in the
/// branch shard named by its octant, which is what makes `take_branch`
/// detach a whole subtree. Shared by [`NodeStore::child_shard`] and the
/// snapshot read path.
#[inline]
pub(crate) fn child_shard_of(parent: u32) -> usize {
    let s = shard_of(parent);
    if s != SPINE_SHARD {
        s
    } else if row_of(parent) == ROOT_ROW {
        SPINE_SHARD
    } else {
        oct_of(parent)
    }
}

/// Uniform storage interface for tree walks: implemented by the routing
/// [`Arena`] (whole tree) and by the worker-owned branch store of the
/// sharded parallel apply. Handles are always the encoded form, so child
/// references written by a shard remain valid when it is reattached.
pub(crate) trait NodeStore<V: Copy> {
    /// Immutable node access (depth ≤ 15 handles).
    fn node(&self, h: u32) -> &Node<V>;
    /// Mutable node access.
    fn node_mut(&mut self, h: u32) -> &mut Node<V>;
    /// Mutable depth-16 voxel access (leaf-row handles).
    fn leaf_value_mut(&mut self, h: u32) -> &mut V;
    /// The shard that holds (or will hold) the children row of `parent`.
    fn child_shard(&self, parent: u32) -> usize;
    /// Allocates a node row for the children of `parent`, every slot set
    /// to `fill`. Returns the raw row index (store it with
    /// [`Node::set_children`]).
    fn alloc_row_for(&mut self, parent: u32, fill: Node<V>) -> u32;
    /// Allocates a leaf row (depth-16 values) for the children of
    /// `parent`, every slot set to `fill`.
    fn alloc_leaf_row_for(&mut self, parent: u32, fill: V) -> u32;
    /// Returns `parent`'s children node row to its shard's free list, or
    /// retires it when a pinned snapshot still reads it (call before
    /// [`Node::clear_children`]).
    fn free_row_of(&mut self, parent: u32);
    /// Returns `parent`'s children leaf row to its shard's free list
    /// (retiring it when pinned, like [`Self::free_row_of`]).
    fn free_leaf_row_of(&mut self, parent: u32);
    /// Makes `parent`'s children row writable in the current epoch,
    /// copying it out (and republishing the parent's packed
    /// `row << 8 | mask` word) when a pinned snapshot still reads it.
    /// Returns the current raw row index. Walks call this top-down on
    /// entry to a node's children, so by induction the parent's own row
    /// is already current (or is the COW-exempt root row) whenever its
    /// word is rewritten here.
    fn ensure_children_current(&mut self, parent: u32, leaf_tier: bool) -> u32;
    /// Borrows a whole node row — one bounds check for all 8 siblings
    /// (the parent refresh / prune-check access pattern).
    fn node_row(&self, shard: usize, row: u32) -> &NodeRow<V>;
    /// Borrows a whole leaf row.
    fn leaf_row(&self, shard: usize, row: u32) -> &LeafRow<V>;

    /// Handle of child `pos` of `parent`, or [`NIL`] when absent. Pure
    /// arithmetic on the parent already in hand — no dependent load.
    #[inline]
    fn child_of(&self, parent: u32, pos: usize) -> u32 {
        let n = self.node(parent);
        if n.has_child(pos) {
            handle(self.child_shard(parent), n.row(), pos)
        } else {
            NIL
        }
    }
}

/// One independently-ownable storage shard (one branch subtree, or the
/// spine). Raw row indices are shard-relative; full node handles carry
/// the shard id.
#[derive(Debug)]
pub(crate) struct ArenaShard<V> {
    id: usize,
    rows: ChunkedVec<NodeRow<V>>,
    /// Epoch each node row was last made writable in (parallel to
    /// `rows`).
    row_stamps: Vec<u32>,
    row_free: Vec<u32>,
    /// Superseded node rows as `(retire_epoch, row)`, oldest first
    /// (epochs are nondecreasing — everything retires at the current
    /// epoch).
    retired: VecDeque<(u32, u32)>,
    leaf_rows: ChunkedVec<LeafRow<V>>,
    leaf_stamps: Vec<u32>,
    leaf_free: Vec<u32>,
    leaf_retired: VecDeque<(u32, u32)>,
    /// Current write epoch (mirrors the owning [`Arena`]'s).
    epoch: u32,
    /// Cached max pinned epoch ([`NO_PINS`] when none): rows stamped at
    /// or before it must be copied, not mutated.
    cow_max_pin: u32,
    cow_copied: u64,
    cow_leaf_copied: u64,
    cow_retired: u64,
    cow_reclaimed: u64,
}

// Derived `Clone` would demand `V: Clone` yet still fail to see that
// `ChunkedVec`'s deep copy needs `V: Copy`; every value type is `Copy`
// (a `LogOdds` supertrait), so bound the manual impl on that directly.
impl<V: Copy> Clone for ArenaShard<V> {
    fn clone(&self) -> Self {
        ArenaShard {
            id: self.id,
            rows: self.rows.clone(),
            row_stamps: self.row_stamps.clone(),
            row_free: self.row_free.clone(),
            retired: self.retired.clone(),
            leaf_rows: self.leaf_rows.clone(),
            leaf_stamps: self.leaf_stamps.clone(),
            leaf_free: self.leaf_free.clone(),
            leaf_retired: self.leaf_retired.clone(),
            epoch: self.epoch,
            cow_max_pin: self.cow_max_pin,
            cow_copied: self.cow_copied,
            cow_leaf_copied: self.cow_leaf_copied,
            cow_retired: self.cow_retired,
            cow_reclaimed: self.cow_reclaimed,
        }
    }
}

impl<V: Copy> ArenaShard<V> {
    fn new(id: usize) -> Self {
        ArenaShard {
            id,
            rows: ChunkedVec::new(),
            row_stamps: Vec::new(),
            row_free: Vec::new(),
            retired: VecDeque::new(),
            leaf_rows: ChunkedVec::new(),
            leaf_stamps: Vec::new(),
            leaf_free: Vec::new(),
            leaf_retired: VecDeque::new(),
            epoch: 0,
            cow_max_pin: NO_PINS,
            cow_copied: 0,
            cow_leaf_copied: 0,
            cow_retired: 0,
            cow_reclaimed: 0,
        }
    }

    /// The branch (or spine) id this shard stores.
    pub fn id(&self) -> usize {
        self.id
    }

    #[inline]
    fn own(&self, h: u32) -> (usize, usize) {
        debug_assert_eq!(shard_of(h), self.id, "handle from a foreign shard");
        (row_of(h) as usize, oct_of(h))
    }

    /// Debug guard behind every in-place node-row write: legal only when
    /// no pinned snapshot can reach the row — its stamp is newer than
    /// every pin — or for the COW-exempt root row (snapshots read the
    /// root by value, never through spine row 0).
    #[inline]
    fn debug_check_row_writable(&self, row: usize) {
        debug_assert!(
            (self.id == SPINE_SHARD && row as u32 == ROOT_ROW)
                || self.cow_max_pin == NO_PINS
                || self.row_stamps[row] > self.cow_max_pin,
            "in-place write to a snapshot-reachable node row (missing \
             ensure_children_current hook?)"
        );
    }

    #[inline]
    fn debug_check_leaf_row_writable(&self, row: usize) {
        debug_assert!(
            self.cow_max_pin == NO_PINS || self.leaf_stamps[row] > self.cow_max_pin,
            "in-place write to a snapshot-reachable leaf row (missing \
             ensure_children_current hook?)"
        );
    }

    #[inline]
    pub fn node(&self, h: u32) -> &Node<V> {
        let (row, oct) = self.own(h);
        &self.rows.get(row)[oct]
    }

    #[inline]
    pub fn node_mut(&mut self, h: u32) -> &mut Node<V> {
        let (row, oct) = self.own(h);
        self.debug_check_row_writable(row);
        &mut self.rows.get_mut(row)[oct]
    }

    #[inline]
    pub fn leaf_value_mut(&mut self, h: u32) -> &mut V {
        let (row, oct) = self.own(h);
        self.debug_check_leaf_row_writable(row);
        &mut self.leaf_rows.get_mut(row)[oct]
    }

    #[inline]
    pub fn node_row(&self, row: u32) -> &NodeRow<V> {
        self.rows.get(row as usize)
    }

    #[inline]
    pub fn leaf_row(&self, row: u32) -> &LeafRow<V> {
        self.leaf_rows.get(row as usize)
    }

    /// Allocates a node row filled with `fill`, reusing a freed row when
    /// available. Returns the raw (shard-relative) row index, stamped
    /// with the current epoch.
    pub fn alloc_row(&mut self, fill: Node<V>) -> u32 {
        if let Some(row) = self.row_free.pop() {
            *self.rows.get_mut(row as usize) = [fill; 8];
            self.row_stamps[row as usize] = self.epoch;
            row
        } else {
            let row = self.rows.len() as u32;
            assert!(row < MAX_ROW, "node-row shard {} exhausted", self.id);
            self.rows.push([fill; 8]);
            self.row_stamps.push(self.epoch);
            row
        }
    }

    /// Allocates a leaf row filled with `fill`.
    pub fn alloc_leaf_row(&mut self, fill: V) -> u32 {
        if let Some(row) = self.leaf_free.pop() {
            *self.leaf_rows.get_mut(row as usize) = [fill; 8];
            self.leaf_stamps[row as usize] = self.epoch;
            row
        } else {
            let row = self.leaf_rows.len() as u32;
            assert!(row < MAX_ROW, "leaf-row shard {} exhausted", self.id);
            self.leaf_rows.push([fill; 8]);
            self.leaf_stamps.push(self.epoch);
            row
        }
    }

    /// True when a pinned snapshot may still read a row with this stamp.
    #[inline]
    fn pin_reachable(&self, stamp: u32) -> bool {
        self.cow_max_pin != NO_PINS && stamp <= self.cow_max_pin
    }

    /// Returns a node row to the free list — or retires it when a pinned
    /// snapshot still reads it.
    pub fn free_row(&mut self, row: u32) {
        debug_assert!((row as usize) < self.rows.len());
        if self.pin_reachable(self.row_stamps[row as usize]) {
            self.retired.push_back((self.epoch, row));
            self.cow_retired += 1;
        } else {
            self.row_free.push(row);
        }
    }

    /// Returns a leaf row to the free list (retiring it when pinned).
    pub fn free_leaf_row(&mut self, row: u32) {
        debug_assert!((row as usize) < self.leaf_rows.len());
        if self.pin_reachable(self.leaf_stamps[row as usize]) {
            self.leaf_retired.push_back((self.epoch, row));
            self.cow_retired += 1;
        } else {
            self.leaf_free.push(row);
        }
    }

    /// Makes a node row writable in the current epoch. In-place restamp
    /// when no pin reaches it; otherwise copies the row to a fresh slot,
    /// retires the original and returns the new index (the caller
    /// republishes the parent's packed word).
    pub fn make_row_current(&mut self, row: u32) -> u32 {
        let stamp = self.row_stamps[row as usize];
        if stamp == self.epoch {
            return row;
        }
        if !self.pin_reachable(stamp) {
            self.row_stamps[row as usize] = self.epoch;
            return row;
        }
        let contents = *self.rows.get(row as usize);
        let fresh = if let Some(r) = self.row_free.pop() {
            self.row_stamps[r as usize] = self.epoch;
            *self.rows.get_mut(r as usize) = contents;
            r
        } else {
            let r = self.rows.len() as u32;
            assert!(r < MAX_ROW, "node-row shard {} exhausted", self.id);
            self.rows.push(contents);
            self.row_stamps.push(self.epoch);
            r
        };
        self.retired.push_back((self.epoch, row));
        self.cow_copied += 1;
        self.cow_retired += 1;
        fresh
    }

    /// Leaf-tier counterpart of [`Self::make_row_current`].
    pub fn make_leaf_row_current(&mut self, row: u32) -> u32 {
        let stamp = self.leaf_stamps[row as usize];
        if stamp == self.epoch {
            return row;
        }
        if !self.pin_reachable(stamp) {
            self.leaf_stamps[row as usize] = self.epoch;
            return row;
        }
        let contents = *self.leaf_rows.get(row as usize);
        let fresh = if let Some(r) = self.leaf_free.pop() {
            self.leaf_stamps[r as usize] = self.epoch;
            *self.leaf_rows.get_mut(r as usize) = contents;
            r
        } else {
            let r = self.leaf_rows.len() as u32;
            assert!(r < MAX_ROW, "leaf-row shard {} exhausted", self.id);
            self.leaf_rows.push(contents);
            self.leaf_stamps.push(self.epoch);
            r
        };
        self.leaf_retired.push_back((self.epoch, row));
        self.cow_leaf_copied += 1;
        self.cow_retired += 1;
        fresh
    }

    /// Recycles retired rows whose retire epoch every live pin has
    /// caught up to (`floor` = oldest pinned epoch, `None` = no pins).
    /// A pin at epoch `P` was captured after all epoch-`P` writes, so it
    /// can only reference rows retired in epochs *after* `P`.
    pub fn reclaim(&mut self, floor: Option<u32>) {
        while let Some(&(e, row)) = self.retired.front() {
            if floor.is_some_and(|f| f < e) {
                break;
            }
            self.retired.pop_front();
            self.row_free.push(row);
            self.cow_reclaimed += 1;
        }
        while let Some(&(e, row)) = self.leaf_retired.front() {
            if floor.is_some_and(|f| f < e) {
                break;
            }
            self.leaf_retired.pop_front();
            self.leaf_free.push(row);
            self.cow_reclaimed += 1;
        }
    }

    /// The read-only copy a snapshot keeps: it shares this shard's chunk
    /// tables (one `Arc` clone per chunk, no row copied) and carries none
    /// of the allocation bookkeeping, which only the writer uses.
    pub fn share(&self) -> Self {
        ArenaShard {
            rows: self.rows.share(),
            leaf_rows: self.leaf_rows.share(),
            ..ArenaShard::new(self.id)
        }
    }

    /// Lends the node rows to a reader for the borrow's lifetime.
    #[inline]
    pub fn node_table(&self) -> Rows<'_, NodeRow<V>> {
        self.rows.rows()
    }

    /// Lends the leaf rows to a reader for the borrow's lifetime.
    #[inline]
    pub fn leaf_table(&self) -> Rows<'_, LeafRow<V>> {
        self.leaf_rows.rows()
    }

    /// Live sibling rows `(node rows, leaf rows)` — allocated minus
    /// freed minus retired-awaiting-reclaim.
    pub fn live_rows(&self) -> (usize, usize) {
        (
            self.rows.len() - self.row_free.len() - self.retired.len(),
            self.leaf_rows.len() - self.leaf_free.len() - self.leaf_retired.len(),
        )
    }

    /// Removes every row. With `drop_chunks` the backing chunks are
    /// released — mandatory when a pinned snapshot shares them, since
    /// re-filling a shared chunk would race its readers; the snapshot
    /// keeps the old chunks alive through its own `Arc`s.
    fn clear(&mut self, drop_chunks: bool) {
        self.rows.clear(drop_chunks);
        self.row_stamps.clear();
        self.row_free.clear();
        self.retired.clear();
        self.leaf_rows.clear(drop_chunks);
        self.leaf_stamps.clear();
        self.leaf_free.clear();
        self.leaf_retired.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
            + self.leaf_rows.heap_bytes()
            + (self.row_free.capacity() + self.leaf_free.capacity()) * 4
            + (self.row_stamps.capacity() + self.leaf_stamps.capacity()) * 4
            + (self.retired.capacity() + self.leaf_retired.capacity()) * 8
    }

    /// High-water row slots `(node rows, leaf rows)` ever allocated.
    fn high_water(&self) -> (usize, usize) {
        (self.rows.len(), self.leaf_rows.len())
    }
}

/// Arena holding all sibling rows of one octree, as 8 branch shards plus
/// the root spine, with the tree-wide epoch/pin state for snapshots.
#[derive(Debug)]
pub(crate) struct Arena<V> {
    shards: [ArenaShard<V>; NUM_SHARDS],
    /// Pin registry shared with every snapshot of this tree.
    pins: PinHandle,
    /// Last pin summary applied to the shards (change detector).
    pin_cache: u64,
    /// Current write epoch (= number of snapshots ever published).
    epoch: u32,
    snapshots_published: u64,
}

impl<V: Copy> Arena<V> {
    pub fn new() -> Self {
        Arena {
            shards: std::array::from_fn(ArenaShard::new),
            pins: PinHandle::fresh(),
            pin_cache: u64::MAX,
            epoch: 0,
            snapshots_published: 0,
        }
    }

    /// Allocates the root node (slot 0 of the spine's row 0) and returns
    /// its handle.
    pub fn alloc_root(&mut self, value: V) -> u32 {
        let row = self.shards[SPINE_SHARD].alloc_row(Node::leaf(value));
        debug_assert_eq!(row, ROOT_ROW, "root row is always the spine's first");
        handle(SPINE_SHARD, ROOT_ROW, 0)
    }

    /// Detaches branch `b`'s shard so a worker thread can own it. The
    /// arena keeps an empty placeholder until [`Self::put_branch`]. The
    /// detached shard carries the epoch/pin state, so workers enforce
    /// the same COW discipline as the routing arena.
    pub fn take_branch(&mut self, b: usize) -> ArenaShard<V> {
        debug_assert!(b < NUM_BRANCHES);
        std::mem::replace(&mut self.shards[b], ArenaShard::new(b))
    }

    /// Reattaches a shard previously detached with [`Self::take_branch`].
    pub fn put_branch(&mut self, b: usize, shard: ArenaShard<V>) {
        debug_assert_eq!(shard.id, b, "shard reattached to the wrong branch");
        self.shards[b] = shard;
    }

    /// Live sibling-row count `(node rows, leaf rows)` across all shards.
    /// Node rows + leaf rows = inner nodes (each inner node owns exactly
    /// one children row); the spine's root row is a node row too.
    pub fn live_rows(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(n, l), s| {
            let (sn, sl) = s.live_rows();
            (n + sn, l + sl)
        })
    }

    /// High-water row counts `(node rows, leaf rows)` ever allocated.
    pub fn high_water(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(n, l), s| {
            let (sn, sl) = s.high_water();
            (n + sn, l + sl)
        })
    }

    /// Heap bytes used by the arena backing storage.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(ArenaShard::heap_bytes).sum()
    }

    /// Removes every row, keeping chunk allocations unless a pinned
    /// snapshot shares them (re-filling shared chunks would race its
    /// readers, so those are released and replaced on the next growth).
    pub fn clear(&mut self) {
        self.sync_pins();
        let pinned = PinRegistry::decode(self.pin_cache).is_some();
        for shard in &mut self.shards {
            shard.clear(pinned);
        }
    }

    /// The current write epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The per-shard storage, for snapshot capture and row views.
    pub fn shards(&self) -> &[ArenaShard<V>; NUM_SHARDS] {
        &self.shards
    }

    /// Re-reads the pin summary (one atomic load) and, when it changed,
    /// refreshes every shard's COW threshold and reclaims retired rows
    /// the oldest live pin has caught up to. Called on every write
    /// entry; never blocks on readers.
    pub fn sync_pins(&mut self) {
        let raw = self.pins.0.raw_summary();
        if raw != self.pin_cache {
            self.apply_pin_summary(raw);
        }
    }

    fn apply_pin_summary(&mut self, raw: u64) {
        self.pin_cache = raw;
        let (floor, max_pin) = match PinRegistry::decode(raw) {
            Some((min, max)) => (Some(min), max),
            None => (None, NO_PINS),
        };
        for shard in &mut self.shards {
            shard.cow_max_pin = max_pin;
            shard.reclaim(floor);
        }
    }

    /// Pins the current epoch for a snapshot being published, then
    /// advances the arena to the next epoch. Returns the pin guard the
    /// snapshot holds for its lifetime.
    pub fn publish_pin(&mut self) -> PinGuard {
        let guard = self.pins.0.pin(self.epoch);
        self.snapshots_published += 1;
        self.epoch += 1;
        for shard in &mut self.shards {
            shard.epoch = self.epoch;
        }
        self.apply_pin_summary(self.pins.0.raw_summary());
        guard
    }

    /// Aggregated snapshot/COW bookkeeping across all shards.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        let mut s = SnapshotStats {
            epoch: self.epoch,
            snapshots_published: self.snapshots_published,
            pinned_snapshots: self.pins.0.live_pins(),
            ..SnapshotStats::default()
        };
        for shard in &self.shards {
            s.node_rows_copied += shard.cow_copied;
            s.leaf_rows_copied += shard.cow_leaf_copied;
            s.rows_retired += shard.cow_retired;
            s.rows_reclaimed += shard.cow_reclaimed;
            s.rows_awaiting_reclaim += (shard.retired.len() + shard.leaf_retired.len()) as u64;
        }
        s
    }

    /// Exhaustively validates the sibling-row invariants of the tree
    /// hanging off `root` (test support; panics on violation):
    ///
    /// - a leaf's packed child reference is all-zero (no stale row);
    /// - an inner node's mask is non-empty and its row index is in range;
    /// - no two inner nodes share a row (per shard and tier);
    /// - every allocated row is *exactly one* of: reachable through one
    ///   parent mask, on its shard's free list, or parked on the retire
    ///   queue awaiting reclamation — i.e. each row's `child_mask` is
    ///   the single source of truth for its live children and COW never
    ///   leaks or double-frees a row;
    /// - retire-queue epochs are nondecreasing (the reclaim scan may
    ///   stop at the first too-new entry) and never exceed the current
    ///   epoch.
    pub fn validate_reachable(&self, root: u32) {
        let mut seen_rows: Vec<Vec<bool>> = self
            .shards
            .iter()
            .map(|s| vec![false; s.rows.len()])
            .collect();
        let mut seen_leaf_rows: Vec<Vec<bool>> = self
            .shards
            .iter()
            .map(|s| vec![false; s.leaf_rows.len()])
            .collect();
        if root != NIL {
            // The root's own row.
            assert_eq!(shard_of(root), SPINE_SHARD, "root outside the spine");
            seen_rows[SPINE_SHARD][row_of(root) as usize] = true;
            let mut stack = vec![(root, 0u8)];
            while let Some((h, depth)) = stack.pop() {
                let n = self.node(h);
                if n.is_leaf() {
                    assert_eq!(n.row(), 0, "leaf at depth {depth} keeps a stale row");
                    continue;
                }
                let shard = self.child_shard(h);
                let row = n.row() as usize;
                let leaf_tier = depth + 1 == 16;
                let seen = if leaf_tier {
                    assert!(
                        row < self.shards[shard].leaf_rows.len(),
                        "leaf row out of range"
                    );
                    &mut seen_leaf_rows[shard][row]
                } else {
                    assert!(row < self.shards[shard].rows.len(), "node row out of range");
                    &mut seen_rows[shard][row]
                };
                assert!(!*seen, "row referenced by two parents");
                *seen = true;
                if !leaf_tier {
                    for pos in 0..8 {
                        if n.has_child(pos) {
                            stack.push((self.child_of(h, pos), depth + 1));
                        }
                    }
                }
            }
        }
        // Every allocated row is exactly one of reachable / free /
        // retired.
        for (sid, shard) in self.shards.iter().enumerate() {
            let mark = |flags: &mut Vec<u8>, r: u32, what: &str| {
                assert_eq!(
                    flags[r as usize], 0,
                    "shard {sid} row {r}: {what} but already accounted for"
                );
                flags[r as usize] = 1;
            };
            let mut flags = vec![0u8; shard.rows.len()];
            for &r in &shard.row_free {
                mark(&mut flags, r, "free");
            }
            let mut prev_epoch = 0;
            for &(e, r) in &shard.retired {
                assert!(e >= prev_epoch, "retire epochs must be nondecreasing");
                assert!(e <= shard.epoch, "retire epoch from the future");
                prev_epoch = e;
                mark(&mut flags, r, "retired");
            }
            for (r, &reachable) in seen_rows[sid].iter().enumerate() {
                assert_eq!(
                    reachable,
                    flags[r] == 0,
                    "shard {sid} node row {r}: reachable={reachable} \
                     free-or-retired={}",
                    flags[r] != 0
                );
            }
            let mut lflags = vec![0u8; shard.leaf_rows.len()];
            for &r in &shard.leaf_free {
                mark(&mut lflags, r, "free");
            }
            prev_epoch = 0;
            for &(e, r) in &shard.leaf_retired {
                assert!(e >= prev_epoch, "retire epochs must be nondecreasing");
                assert!(e <= shard.epoch, "retire epoch from the future");
                prev_epoch = e;
                mark(&mut lflags, r, "retired");
            }
            for (r, &reachable) in seen_leaf_rows[sid].iter().enumerate() {
                assert_eq!(
                    reachable,
                    lflags[r] == 0,
                    "shard {sid} leaf row {r}: reachable={reachable} \
                     free-or-retired={}",
                    lflags[r] != 0
                );
            }
        }
    }
}

/// Deep copy sharing no storage with the original: the clone gets a
/// fresh pin registry and treats its (privately copied) retired rows as
/// immediately reclaimable — snapshots pinned on the original cannot
/// reach the clone's rows and must not throttle its writes.
impl<V: Copy> Clone for Arena<V> {
    fn clone(&self) -> Self {
        let mut shards = self.shards.clone();
        for shard in &mut shards {
            shard.cow_max_pin = NO_PINS;
            while let Some((_, r)) = shard.retired.pop_front() {
                shard.row_free.push(r);
                shard.cow_reclaimed += 1;
            }
            while let Some((_, r)) = shard.leaf_retired.pop_front() {
                shard.leaf_free.push(r);
                shard.cow_reclaimed += 1;
            }
        }
        Arena {
            shards,
            pins: PinHandle::fresh(),
            pin_cache: u64::MAX,
            epoch: self.epoch,
            snapshots_published: self.snapshots_published,
        }
    }
}

impl<V: Copy> NodeStore<V> for Arena<V> {
    #[inline]
    fn node(&self, h: u32) -> &Node<V> {
        self.shards[shard_of(h)].node(h)
    }

    #[inline]
    fn node_mut(&mut self, h: u32) -> &mut Node<V> {
        self.shards[shard_of(h)].node_mut(h)
    }

    #[inline]
    fn leaf_value_mut(&mut self, h: u32) -> &mut V {
        self.shards[shard_of(h)].leaf_value_mut(h)
    }

    #[inline]
    fn child_shard(&self, parent: u32) -> usize {
        child_shard_of(parent)
    }

    #[inline]
    fn alloc_row_for(&mut self, parent: u32, fill: Node<V>) -> u32 {
        let shard = child_shard_of(parent);
        self.shards[shard].alloc_row(fill)
    }

    #[inline]
    fn alloc_leaf_row_for(&mut self, parent: u32, fill: V) -> u32 {
        let shard = child_shard_of(parent);
        self.shards[shard].alloc_leaf_row(fill)
    }

    #[inline]
    fn free_row_of(&mut self, parent: u32) {
        let shard = child_shard_of(parent);
        let row = self.node(parent).row();
        self.shards[shard].free_row(row);
    }

    #[inline]
    fn free_leaf_row_of(&mut self, parent: u32) {
        let shard = child_shard_of(parent);
        let row = self.node(parent).row();
        self.shards[shard].free_leaf_row(row);
    }

    #[inline]
    fn ensure_children_current(&mut self, parent: u32, leaf_tier: bool) -> u32 {
        let shard = child_shard_of(parent);
        let n = *self.node(parent);
        debug_assert!(!n.is_leaf(), "ensure on a childless node");
        let row = n.row();
        let current = if leaf_tier {
            self.shards[shard].make_leaf_row_current(row)
        } else {
            self.shards[shard].make_row_current(row)
        };
        if current != row {
            self.node_mut(parent).set_children(current, n.mask());
        }
        current
    }

    #[inline]
    fn node_row(&self, shard: usize, row: u32) -> &NodeRow<V> {
        self.shards[shard].node_row(row)
    }

    #[inline]
    fn leaf_row(&self, shard: usize, row: u32) -> &LeafRow<V> {
        self.shards[shard].leaf_row(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocates + attaches a children node row, mirroring the walk.
    fn attach_row(a: &mut Arena<f32>, parent: u32, fill: Node<f32>, mask: u8) -> u32 {
        let row = a.alloc_row_for(parent, fill);
        a.node_mut(parent).set_children(row, mask);
        row
    }

    #[test]
    fn root_lives_in_the_spine() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.5);
        assert_eq!(shard_of(root), SPINE_SHARD);
        assert_eq!(a.node(root).value, 0.5);
        assert!(a.node(root).is_leaf());
        assert_eq!(a.live_rows(), (1, 0));
    }

    #[test]
    fn root_children_share_a_spine_row_and_branch_rows_split() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        attach_row(&mut a, root, Node::leaf(0.0), 0xFF);
        for pos in 0..NUM_BRANCHES {
            let child = a.child_of(root, pos);
            assert_eq!(shard_of(child), SPINE_SHARD, "depth-1 row is spine");
            // A depth-1 node's children land in its branch shard.
            let grand_row = a.alloc_row_for(child, Node::leaf(0.0));
            a.node_mut(child).set_children(grand_row, 1 << (7 - pos));
            let grand = a.child_of(child, 7 - pos);
            assert_eq!(shard_of(grand), pos, "branch subtree in its own shard");
            // And deeper descendants stay in the branch shard.
            assert_eq!(a.child_shard(grand), pos);
        }
    }

    #[test]
    fn child_of_is_mask_gated_arithmetic() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        assert_eq!(a.child_of(root, 3), NIL, "leaf has no children");
        let row = attach_row(&mut a, root, Node::leaf(1.5), 1 << 3);
        let child = a.child_of(root, 3);
        assert_eq!(child, handle(SPINE_SHARD, row, 3));
        assert_eq!(a.node(child).value, 1.5);
        assert_eq!(a.child_of(root, 4), NIL, "unmasked slot is absent");
    }

    #[test]
    fn freed_rows_recycle_lifo_and_reset() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        let row = attach_row(&mut a, root, Node::leaf(2.0), 0xFF);
        a.node_mut(a.child_of(root, 5)).value = 9.0;
        a.free_row_of(root);
        a.node_mut(root).clear_children();
        assert_eq!(a.live_rows(), (1, 0));
        let row2 = attach_row(&mut a, root, Node::leaf(0.0), 0xFF);
        assert_eq!(row2, row, "freed row is recycled LIFO");
        assert_eq!(
            a.node(a.child_of(root, 5)).value,
            0.0,
            "recycled rows reset"
        );
        assert_eq!(a.high_water(), (2, 0), "no growth past high water");
    }

    #[test]
    fn leaf_rows_store_values_only() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        attach_row(&mut a, root, Node::leaf(0.0), 1 << 2);
        let d1 = a.child_of(root, 2);
        // Pretend d1 is a depth-15 node: give it a leaf row.
        let lrow = a.alloc_leaf_row_for(d1, 0.25);
        a.node_mut(d1).set_children(lrow, 0xFF);
        let voxel = a.child_of(d1, 7);
        assert_eq!(shard_of(voxel), 2, "leaf row colocated with the branch");
        assert_eq!(a.leaf_row(2, lrow)[7], 0.25);
        *a.leaf_value_mut(voxel) = 0.75;
        assert_eq!(a.leaf_row(2, lrow)[7], 0.75);
        assert_eq!(a.live_rows(), (2, 1));
        a.free_leaf_row_of(d1);
        a.node_mut(d1).clear_children();
        assert_eq!(a.live_rows(), (2, 0));
    }

    #[test]
    fn take_and_put_branch_roundtrips_contents() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        attach_row(&mut a, root, Node::leaf(0.0), 1 << 5);
        let d1 = a.child_of(root, 5);
        let grand_row = a.alloc_row_for(d1, Node::leaf(2.5));
        a.node_mut(d1).set_children(grand_row, 0xFF);
        let grand = a.child_of(d1, 0);

        let shard = a.take_branch(5);
        assert_eq!(a.live_rows(), (2, 0), "spine rows remain attached");
        assert_eq!(shard.node(grand).value, 2.5, "shard handles stay valid");
        a.put_branch(5, shard);
        assert_eq!(a.live_rows(), (3, 0));
        assert_eq!(a.node(grand).value, 2.5);
    }

    #[test]
    fn clear_resets_everything() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        attach_row(&mut a, root, Node::leaf(0.0), 0xFF);
        a.clear();
        assert_eq!(a.live_rows(), (0, 0));
        assert!(a.heap_bytes() > 0, "capacity is kept");
        // The next root allocation lands in row 0 again.
        let root2 = a.alloc_root(1.0);
        assert_eq!(root2, root);
    }

    #[test]
    fn writes_without_pins_restamp_in_place() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        let row = attach_row(&mut a, root, Node::leaf(0.0), 0xFF);
        let _snap_pin = a.publish_pin();
        drop(_snap_pin);
        a.sync_pins();
        // Pin dropped before the write: row stays put, only restamped.
        let current = a.ensure_children_current(root, false);
        assert_eq!(current, row, "no live pin → no copy");
        assert_eq!(a.snapshot_stats().node_rows_copied, 0);
    }

    #[test]
    fn cow_copies_pinned_rows_and_reclaims_after_unpin() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        let row = attach_row(&mut a, root, Node::leaf(3.0), 0xFF);
        let pin = a.publish_pin();

        let current = a.ensure_children_current(root, false);
        assert_ne!(current, row, "pinned row must be copied, not reused");
        assert_eq!(a.node(root).row(), current, "parent word republished");
        a.node_mut(a.child_of(root, 1)).value = 7.0;
        // The original row still holds the snapshot's data.
        assert_eq!(a.shards()[SPINE_SHARD].node_row(row)[1].value, 3.0);
        let stats = a.snapshot_stats();
        assert_eq!(stats.node_rows_copied, 1);
        assert_eq!(stats.rows_awaiting_reclaim, 1);
        a.validate_reachable(root);

        // Same epoch, second touch: already current, no second copy.
        assert_eq!(a.ensure_children_current(root, false), current);
        assert_eq!(a.snapshot_stats().node_rows_copied, 1);

        drop(pin);
        a.sync_pins();
        let stats = a.snapshot_stats();
        assert_eq!(stats.rows_awaiting_reclaim, 0);
        assert_eq!(stats.rows_reclaimed, 1);
        a.validate_reachable(root);
        // The reclaimed row is recycled by the next allocation.
        assert_eq!(a.alloc_row_for(root, Node::leaf(0.0)), row);
    }

    #[test]
    fn retired_rows_wait_for_the_oldest_pin() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        attach_row(&mut a, root, Node::leaf(1.0), 0xFF);
        let old_pin = a.publish_pin();
        a.ensure_children_current(root, false);
        let _new_pin = a.publish_pin();
        // The young pin (epoch 1) postdates the retirement (epoch 1
        // retire entry ≤ pin 1), but the old pin (epoch 0) still reaches
        // the row.
        assert_eq!(a.snapshot_stats().rows_awaiting_reclaim, 1);
        drop(old_pin);
        a.sync_pins();
        assert_eq!(
            a.snapshot_stats().rows_awaiting_reclaim,
            0,
            "dropping the oldest pin releases the row"
        );
        a.validate_reachable(root);
    }

    #[test]
    fn cloned_arena_reclaims_privately_and_shares_no_pins() {
        let mut a: Arena<f32> = Arena::new();
        let root = a.alloc_root(0.0);
        attach_row(&mut a, root, Node::leaf(1.0), 0xFF);
        let _pin = a.publish_pin();
        a.ensure_children_current(root, false);

        let mut b = a.clone();
        assert_eq!(
            b.snapshot_stats().rows_awaiting_reclaim,
            0,
            "clone drains retired rows (no pin can reach its copies)"
        );
        assert_eq!(b.snapshot_stats().pinned_snapshots, 0);
        // Writes to the clone never copy on account of the original's pin.
        let before = b.snapshot_stats().node_rows_copied;
        b.ensure_children_current(root, false);
        assert_eq!(b.snapshot_stats().node_rows_copied, before);
        b.validate_reachable(root);
        a.validate_reachable(root);
    }
}
