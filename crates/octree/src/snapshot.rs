//! Epoch-pinned snapshots: lock-free concurrent reads under live writes.
//!
//! Every engine in the crate is thread-confined: reads borrow `&self`,
//! writes take `&mut self`. A serving deployment —
//! many clients querying while scans stream in — needs a third shape: a
//! **snapshot** that pins the map at a publish instant and stays
//! readable, bit-identically, from any number of threads while the
//! writer keeps mutating the live tree at full speed.
//!
//! The sibling-row arena makes this cheap. Rows are allocated and freed
//! whole, so the unit of sharing is the row, and the scheme is:
//!
//! - **Stable storage** ([`ChunkedVec`]): each shard's row arena becomes
//!   a list of shared chunks (`Arc<Chunk<_>>`) with power-of-two ladder
//!   growth. Rows never move on growth, so a snapshot can hold the chunk
//!   list and dereference rows long after the writer has grown the
//!   arena.
//! - **Epochs**: the tree carries an epoch counter, bumped on every
//!   [`publish`](crate::OccupancyOctree::publish_snapshot). Each row
//!   remembers the epoch it was last made writable in (its *stamp*).
//! - **Row copy-on-write**: the first mutation of a row in an epoch —
//!   when the row is still reachable by some pinned snapshot — clones
//!   the row into a fresh slot and republishes the parent's packed
//!   `row << 8 | mask` word. The handle bit layout is untouched; the
//!   snapshot keeps reading the original row through its own copy of
//!   the parent word.
//! - **Epoch-based reclamation**: superseded rows are *retired* with the
//!   epoch of their replacement and return to the shard free list only
//!   once no pinned snapshot is old enough to reach them
//!   (`min live pin ≥ retire epoch`).
//!
//! The writer never blocks on readers: its only interaction with them is
//! one atomic load of the [`PinRegistry`] summary per write entry.
//! Readers never block the writer or each other: a [`Snapshot`] is an
//! `Arc` over immutable chunk tables.
//!
//! Reads go through one borrowed row view, [`TreeView`]: the tree's
//! shards, each a chunk list and a length per tier, lent by the live
//! arena or by a snapshot's read-only shard copies. Every read
//! algorithm — the [`DescentCursor`](crate::DescentCursor), the
//! [`LeafIter`](crate::LeafIter), the pre-order encoder and the uncached
//! [`TreeView::search`] — is written once against it, so a snapshot
//! answers through exactly the code the live tree answers through.
//!
//! This module is the crate's single home for `unsafe` and atomics
//! (alongside `omu-pool`); the arena stays safe by construction and the
//! lint gate enforces the confinement.

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use omu_geometry::{
    Aabb, KeyConverter, KeyError, LogOdds, Occupancy, OccupancyParams, Point3, ResolvedParams,
    VoxelKey, TREE_DEPTH,
};
use serde::{Deserialize, Serialize};

use crate::arena::{
    child_shard_of, handle, oct_of, row_of, shard_of, Arena, ArenaShard, NodeStore, NUM_SHARDS,
};
use crate::iter::LeafIter;
use crate::node::{Node, NIL};
use crate::query_batch::DescentCursor;

/// `cow_max_pin` value meaning "no snapshot is pinned": every row may be
/// mutated in place.
pub(crate) const NO_PINS: u32 = u32::MAX;

/// log2 of the first chunk's row capacity. Subsequent chunks double
/// (64, 64, 128, 256, …), so total slack stays within the ~2× envelope
/// a doubling `Vec` already paid before this module existed.
const FIRST_CHUNK_POW: u32 = 6;
const FIRST_CHUNK: usize = 1 << FIRST_CHUNK_POW;

/// `(chunk, offset)` of row `i` in the ladder layout (see [`ChunkedVec`]).
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let v = i + FIRST_CHUNK;
    let k = usize::BITS - 1 - v.leading_zeros();
    ((k - FIRST_CHUNK_POW) as usize, v ^ (1usize << k))
}

/// One fixed-size block of rows, shared between the live arena and any
/// number of pinned snapshots.
pub(crate) struct Chunk<T> {
    cells: Box<[UnsafeCell<T>]>,
}

// SAFETY: a `Chunk` is shared (via `Arc`) between exactly one writer —
// the thread holding `&mut` on the owning tree — and any number of
// snapshot readers. The epoch/COW discipline guarantees the writer only
// mutates cells no pinned snapshot can reach (rows stamped after every
// live pin, or beyond every snapshot's captured length), so no cell is
// ever written while another thread may read it.
unsafe impl<T: Send> Send for Chunk<T> {}
// SAFETY: same argument as `Send` above — the writer/reader exclusion
// the epoch/COW discipline enforces is exactly what makes shared
// `&Chunk` access from multiple threads sound.
unsafe impl<T: Send + Sync> Sync for Chunk<T> {}

impl<T: Copy> Chunk<T> {
    fn filled(len: usize, fill: T) -> Arc<Self> {
        Chunk {
            cells: (0..len).map(|_| UnsafeCell::new(fill)).collect(),
        }
        .into()
    }
}

/// Grow-only chunked row storage with stable addresses.
///
/// Indexing uses the classic ladder layout: virtual index
/// `v = i + FIRST_CHUNK`, chunk `⌊log2 v⌋ - FIRST_CHUNK_POW`, offset
/// `v` minus its top bit — one add, one `leading_zeros` and one mask
/// away from a flat `Vec` index.
pub(crate) struct ChunkedVec<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

impl<T: Copy> ChunkedVec<T> {
    pub fn new() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Total row slots currently backed by chunks.
    #[inline]
    fn capacity(&self) -> usize {
        (FIRST_CHUNK << self.chunks.len()) - FIRST_CHUNK
    }

    #[inline]
    pub fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len);
        let (c, o) = locate(i);
        // SAFETY: the borrow of `self` keeps the writer from handing out
        // `&mut` aliases on this thread; cross-thread, see the `Chunk`
        // Sync justification (readers only ever touch immutable cells).
        unsafe { &*self.chunks[c].cells[o].get() }
    }

    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let (c, o) = locate(i);
        // SAFETY: `&mut self` confines this to the single writer thread,
        // and the COW discipline guarantees the cell is not reachable
        // from any pinned snapshot (callers route through
        // `make_row_current` first).
        unsafe { &mut *self.chunks[c].cells[o].get() }
    }

    pub fn push(&mut self, value: T) {
        if self.len == self.capacity() {
            self.chunks
                .push(Chunk::filled(FIRST_CHUNK << self.chunks.len(), value));
        }
        let (c, o) = locate(self.len);
        // SAFETY: the slot at `self.len` is beyond every snapshot's
        // captured length (lengths only grow, and a snapshot records the
        // length at publish), so no reader can reach it.
        unsafe {
            *self.chunks[c].cells[o].get() = value;
        }
        self.len += 1;
    }

    /// Empties the vector. With `drop_chunks` the backing chunks are
    /// released (pinned snapshots keep them alive through their own
    /// `Arc`s and future pushes allocate fresh ones); without it the
    /// chunks are kept for reuse, preserving capacity like `Vec::clear`.
    pub fn clear(&mut self, drop_chunks: bool) {
        if drop_chunks {
            self.chunks.clear();
        }
        self.len = 0;
    }

    pub fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }

    /// Shares the current chunk table for a snapshot (cheap: one `Arc`
    /// clone per chunk). The copy is read-only by convention: a snapshot
    /// never writes through it, and the writer never pushes into it.
    pub fn share(&self) -> Self {
        ChunkedVec {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }

    /// Lends the rows to a reader for the borrow's lifetime (no `Arc`
    /// clone).
    #[inline]
    pub fn rows(&self) -> Rows<'_, T> {
        Rows(self)
    }
}

/// Deep copy: a cloned tree must own private storage, so its mutations
/// can never reach snapshots pinned on the original (and vice versa).
impl<T: Copy> Clone for ChunkedVec<T> {
    fn clone(&self) -> Self {
        let mut out = ChunkedVec::new();
        for i in 0..self.len {
            out.push(*self.get(i));
        }
        out
    }
}

impl<T> fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkedVec")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

/// One shard tier's rows as a reader sees them: a borrowed chunk list
/// and the number of rows valid in it.
pub(crate) struct Rows<'a, T>(&'a ChunkedVec<T>);

// Manual impls: the derives would demand `T: Copy` for a shared
// reference.
impl<T> Clone for Rows<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Rows<'_, T> {}

impl<'a, T> Rows<'a, T> {
    #[inline]
    fn get(self, i: usize) -> &'a T {
        let rows = self.0;
        assert!(i < rows.len, "row out of range");
        let (c, o) = locate(i);
        // SAFETY: a view lends either the live arena's rows under a shared
        // borrow of the arena — no `&mut` writer exists while it lives —
        // or a snapshot's captured rows (its never-written shard copies),
        // which the writer never mutates while the snapshot's pin is alive
        // (it copies them out instead; the view borrows the snapshot, so
        // the pin outlives the reference). The one row the writer updates
        // in place, the root's, is never requested: `TreeView::node`
        // refuses the root handle. Rows at or past `len` may be written by
        // a concurrent `push`, and the assert above keeps them out of
        // reach.
        unsafe { &*rows.chunks[c].cells[o].get() }
    }
}

/// A borrowed, read-only view of one tree's rows — the one source every
/// read algorithm runs on: the [`DescentCursor`], the [`LeafIter`], the
/// pre-order encoder and the uncached [`search`](Self::search).
///
/// Both sources build it the same way, from an array of shards that each
/// hold a chunk list and a length per tier (node rows, leaf rows): the
/// live tree lends its arena's shards for the view's lifetime (nothing is
/// published, pinned or `Arc`-cloned), a [`Snapshot`] lends the shard
/// copies it captured. Building a view stores one pointer per source, so
/// even a single uncached probe pays almost nothing for it. The root
/// node travels by value in both, because the writer mutates the root's
/// spine cell in place (its row is COW-exempt), so a snapshot must never
/// read it there. Reads dispatch statically: one concrete type, no
/// per-node branching on where the rows came from.
pub(crate) struct TreeView<'a, V: LogOdds> {
    /// Indexed by shard id (8 branches + spine).
    shards: &'a [ArenaShard<V>; NUM_SHARDS],
    root: u32,
    root_node: Node<V>,
    pub resolved: &'a ResolvedParams<V>,
    pub conv: &'a KeyConverter,
}

impl<V: LogOdds> Clone for TreeView<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V: LogOdds> Copy for TreeView<'_, V> {}

impl<V: LogOdds> fmt::Debug for TreeView<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreeView")
            .field("empty", &self.is_empty())
            .finish_non_exhaustive()
    }
}

impl<'a, V: LogOdds> TreeView<'a, V> {
    /// Builds a view from a tree's shards, its root handle ([`NIL`] when
    /// empty) and the root node by value.
    #[inline]
    pub(crate) fn new(
        shards: &'a [ArenaShard<V>; NUM_SHARDS],
        root: u32,
        root_node: Node<V>,
        resolved: &'a ResolvedParams<V>,
        conv: &'a KeyConverter,
    ) -> Self {
        TreeView {
            shards,
            root,
            root_node,
            resolved,
            conv,
        }
    }

    /// The root handle ([`NIL`] when the tree is empty).
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// True when the tree holds no observation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// The root node, by value (meaningless when the view is empty).
    #[inline]
    pub fn root_node(&self) -> Node<V> {
        self.root_node
    }

    /// The node at `h`, read from its row: depth 1‥15 handles. The root
    /// is never read from its row — the writer updates that cell in
    /// place — so walks start from [`Self::root_node`] instead.
    #[inline]
    pub fn node(&self, h: u32) -> Node<V> {
        assert!(
            h != self.root,
            "the root is read by value, not from its row"
        );
        self.shards[shard_of(h)]
            .node_table()
            .get(row_of(h) as usize)[oct_of(h)]
    }

    /// Occupancy classification of the voxel at `key`, through the
    /// uncached [`search`](Self::search).
    #[inline]
    pub fn occupancy(&self, key: VoxelKey) -> Occupancy {
        match self.search(key, TREE_DEPTH) {
            Some((v, _)) => self.resolved.classify(v),
            None => Occupancy::Unknown,
        }
    }

    /// The depth-16 voxel value at `h` (leaf-row handles).
    #[inline]
    pub fn leaf_value(&self, h: u32) -> V {
        self.shards[shard_of(h)]
            .leaf_table()
            .get(row_of(h) as usize)[oct_of(h)]
    }

    /// Handle of child `pos` of `parent`, whose node `n` the caller
    /// already holds: arithmetic only, no load.
    #[inline]
    pub fn child(&self, parent: u32, n: &Node<V>, pos: usize) -> u32 {
        handle(child_shard_of(parent), n.row(), pos)
    }

    /// Searches for the node covering `key`, descending at most to
    /// `depth`, and returns its value and the depth it was found at — the
    /// one uncached descent behind
    /// [`OccupancyOctree::search`](crate::OccupancyOctree::search),
    /// [`OccupancyOctree::search_at_depth`](crate::OccupancyOctree::search_at_depth)
    /// and [`Snapshot::search`], and the reference the cursor tests
    /// compare against.
    #[inline]
    pub fn search(&self, key: VoxelKey, depth: u8) -> Option<(V, u8)> {
        if self.is_empty() {
            return None;
        }
        let mut node = self.root;
        let mut n = self.root_node;
        for d in 0..depth {
            if n.is_leaf() {
                // A pruned (or coarse) leaf covers the whole subtree.
                return Some((n.value, d));
            }
            let pos = key.child_index_at(d).index();
            if !n.has_child(pos) {
                // The node has children, just not on this path: unobserved.
                return None;
            }
            // One dependent load per level: the child handle is pure
            // arithmetic on the node already in hand.
            node = self.child(node, &n, pos);
            if d + 1 == TREE_DEPTH {
                // Reaching full depth means the walk stepped into a leaf
                // row.
                return Some((self.leaf_value(node), TREE_DEPTH));
            }
            n = self.node(node);
        }
        Some((n.value, depth))
    }
}

/// Registry of pinned snapshot epochs, shared between one writer and all
/// snapshots of a tree.
///
/// Pin/unpin mutate a mutex-guarded multiset (cold: once per snapshot
/// lifetime). The writer reads only the packed atomic summary — its
/// write path stays lock-free and never waits on readers.
pub(crate) struct PinRegistry {
    /// epoch → live pin count.
    pins: Mutex<BTreeMap<u32, u32>>,
    /// `(min << 32) | max` over pinned epochs; `u64::MAX` when empty.
    summary: AtomicU64,
}

impl PinRegistry {
    pub fn new() -> Self {
        PinRegistry {
            pins: Mutex::new(BTreeMap::new()),
            summary: AtomicU64::new(u64::MAX),
        }
    }

    /// Pins `epoch`; the pin lives until the returned guard drops.
    pub fn pin(self: &Arc<Self>, epoch: u32) -> PinGuard {
        // An epoch of `u32::MAX` would collide with the empty sentinel;
        // it is unreachable (one publish per epoch, ~136 years at 1 kHz).
        debug_assert_ne!(epoch, u32::MAX);
        let mut pins = lock_unpoisoned(&self.pins);
        *pins.entry(epoch).or_insert(0) += 1;
        self.store_summary(&pins);
        PinGuard {
            registry: Arc::clone(self),
            epoch,
        }
    }

    fn store_summary(&self, pins: &BTreeMap<u32, u32>) {
        let packed = match (pins.keys().next(), pins.keys().next_back()) {
            (Some(&min), Some(&max)) => ((min as u64) << 32) | max as u64,
            _ => u64::MAX,
        };
        // Release pairs with the writer's Acquire load: once the writer
        // observes a pin gone, the reader's last access happened-before.
        self.summary.store(packed, Ordering::Release);
    }

    /// The packed summary word (for cheap change detection).
    pub fn raw_summary(&self) -> u64 {
        self.summary.load(Ordering::Acquire)
    }

    /// Unpacks a summary into `(min_pin, max_pin)`, `None` when no pin
    /// is live.
    pub fn decode(raw: u64) -> Option<(u32, u32)> {
        (raw != u64::MAX).then_some(((raw >> 32) as u32, raw as u32))
    }

    /// Number of live pinned snapshots (cold path, takes the lock).
    pub fn live_pins(&self) -> u64 {
        let pins = lock_unpoisoned(&self.pins);
        pins.values().map(|&c| c as u64).sum()
    }
}

/// Lock the pin map, recovering from poisoning: every critical section
/// over it updates the counts in single statements that cannot unwind
/// mid-mutation, so a poison flag carries no information — and a pin
/// registry that panics on drop would turn one reader crash into a
/// writer crash.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl fmt::Debug for PinRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PinRegistry")
            .field("summary", &PinRegistry::decode(self.raw_summary()))
            .finish()
    }
}

/// Keeps one epoch pinned for the lifetime of a snapshot.
pub(crate) struct PinGuard {
    registry: Arc<PinRegistry>,
    epoch: u32,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut pins = lock_unpoisoned(&self.registry.pins);
        if let Some(count) = pins.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.epoch);
            }
        }
        self.registry.store_summary(&pins);
    }
}

/// The arena's handle on its pin registry. `Clone` deliberately creates
/// a **fresh** registry: a cloned tree deep-copies its storage, so
/// snapshots pinned on the original cannot reach the clone's rows and
/// must not throttle its writes.
pub(crate) struct PinHandle(pub(crate) Arc<PinRegistry>);

impl PinHandle {
    pub fn fresh() -> Self {
        PinHandle(Arc::new(PinRegistry::new()))
    }
}

impl Clone for PinHandle {
    fn clone(&self) -> Self {
        PinHandle::fresh()
    }
}

impl fmt::Debug for PinHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Snapshot/COW bookkeeping for one tree — the serving-mode counterpart
/// of [`OpCounters`](crate::OpCounters). Kept separate so engine
/// bit-equality tests (which compare `OpCounters` exactly) are
/// unaffected by how much COW traffic each engine happened to cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Current write epoch (number of publishes so far).
    pub epoch: u32,
    /// Snapshots ever published.
    pub snapshots_published: u64,
    /// Live pinned snapshots right now.
    pub pinned_snapshots: u64,
    /// Node rows copied by the write path because a pinned snapshot
    /// still read the original.
    pub node_rows_copied: u64,
    /// Leaf rows copied likewise.
    pub leaf_rows_copied: u64,
    /// Rows retired (superseded or freed while still snapshot-reachable).
    pub rows_retired: u64,
    /// Retired rows recycled onto a free list after their last pin died.
    pub rows_reclaimed: u64,
    /// Rows still parked on retire queues awaiting reclamation.
    pub rows_awaiting_reclaim: u64,
}

/// An immutable, epoch-pinned view of an [`OccupancyOctree`], readable
/// from any number of threads while the live tree keeps mutating.
///
/// Created by [`OccupancyOctree::publish_snapshot`]; cloning is one
/// `Arc` bump. Every read — [`occupancy`](Self::occupancy), batched
/// queries and ray casts through a [`reader`](Self::reader), leaf
/// iteration, serialization — runs the live tree's own read code over
/// the snapshot's frozen rows and returns exactly what the live tree
/// would have returned at the publish instant. Dropping the last clone
/// unpins the epoch, letting the writer reclaim rows it copied out while
/// the snapshot was alive.
///
/// [`OccupancyOctree`]: crate::OccupancyOctree
/// [`OccupancyOctree::publish_snapshot`]: crate::OccupancyOctree::publish_snapshot
pub struct Snapshot<V: LogOdds> {
    inner: Arc<SnapInner<V>>,
}

impl<V: LogOdds> Clone for Snapshot<V> {
    fn clone(&self) -> Self {
        Snapshot {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: LogOdds> fmt::Debug for Snapshot<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.inner.epoch)
            .field("empty", &(self.inner.root == NIL))
            .finish()
    }
}

struct SnapInner<V: LogOdds> {
    /// Read-only copies of the tree's shards sharing their chunk tables,
    /// indexed by shard id (8 branches + spine).
    shards: [ArenaShard<V>; NUM_SHARDS],
    root: u32,
    /// The root node by value. The root's spine cell is the one location
    /// the writer mutates in place (its row is COW-exempt so the root
    /// handle stays stable), so snapshots must never dereference it.
    root_node: Node<V>,
    conv: KeyConverter,
    resolved: ResolvedParams<V>,
    /// The raw occupancy parameters, carried so a snapshot can be
    /// serialized with the same header the live tree would write.
    params: OccupancyParams,
    epoch: u32,
    _pin: PinGuard,
}

impl<V: LogOdds> Snapshot<V> {
    /// Captures the current state of `arena` and pins its epoch; the
    /// arena advances to the next epoch before this returns.
    pub(crate) fn capture(
        arena: &mut Arena<V>,
        root: u32,
        conv: KeyConverter,
        resolved: ResolvedParams<V>,
        params: OccupancyParams,
    ) -> Self {
        let epoch = arena.epoch();
        let root_node = if root == NIL {
            Node::leaf(V::ZERO)
        } else {
            *arena.node(root)
        };
        let live = arena.shards();
        let shards = std::array::from_fn(|s| live[s].share());
        let pin = arena.publish_pin();
        Snapshot {
            inner: Arc::new(SnapInner {
                shards,
                root,
                root_node,
                conv,
                resolved,
                params,
                epoch,
                _pin: pin,
            }),
        }
    }

    /// The snapshot's row view, built the way the live tree builds its
    /// own, from the captured shards.
    #[inline]
    pub(crate) fn view(&self) -> TreeView<'_, V> {
        let inner = &*self.inner;
        TreeView::new(
            &inner.shards,
            inner.root,
            inner.root_node,
            &inner.resolved,
            &inner.conv,
        )
    }

    /// The epoch this snapshot pins (the tree's publish count at
    /// capture).
    pub fn epoch(&self) -> u32 {
        self.inner.epoch
    }

    /// True when the snapshot holds no observation.
    pub fn is_empty(&self) -> bool {
        self.inner.root == NIL
    }

    /// The key/coordinate converter of the snapshotted map.
    pub fn converter(&self) -> &KeyConverter {
        &self.inner.conv
    }

    /// The map resolution in metres.
    pub fn resolution(&self) -> f64 {
        self.inner.conv.resolution()
    }

    /// The occupancy parameters of the snapshotted map.
    pub fn params(&self) -> &OccupancyParams {
        &self.inner.params
    }

    /// Searches for the node covering `key` — same contract and result
    /// as [`OccupancyOctree::search`](crate::OccupancyOctree::search)
    /// on the live tree at publish time.
    pub fn search(&self, key: VoxelKey) -> Option<(V, u8)> {
        self.view().search(key, TREE_DEPTH)
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
    /// Returns [`KeyError`] when the point is outside the addressable
    /// map.
    pub fn occupancy_at(&self, point: Point3) -> Result<Occupancy, KeyError> {
        Ok(self.occupancy(self.inner.conv.coord_to_key(point)?))
    }

    /// Borrows the snapshot as a cached-descent [`DescentCursor`] — the
    /// live tree's [`reader`](crate::OccupancyOctree::reader) over the
    /// frozen rows, and the one way to run batched queries, ray casts and
    /// collision sweeps on a snapshot. Each reader thread owns one;
    /// readers never synchronize with each other or the writer.
    pub fn reader(&self) -> DescentCursor<'_, V> {
        DescentCursor::new(self.view())
    }

    /// Iterates over all leaves of the pinned map.
    pub fn iter_leaves(&self) -> LeafIter<'_, V> {
        LeafIter::new(self.view(), None)
    }

    /// Iterates the leaves whose regions intersect the key box
    /// `[min, max]` (inclusive, per axis).
    pub fn iter_leaves_in_box(&self, min: VoxelKey, max: VoxelKey) -> LeafIter<'_, V> {
        LeafIter::new(self.view(), Some((min, max)))
    }

    /// Iterates the leaves intersecting a metric box.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when a corner of the box is outside the map.
    pub fn iter_leaves_in_aabb(&self, aabb: &Aabb) -> Result<LeafIter<'_, V>, KeyError> {
        let min = self.inner.conv.coord_to_key(aabb.min())?;
        let max = self.inner.conv.coord_to_key(aabb.max())?;
        Ok(self.iter_leaves_in_box(min, max))
    }

    /// The canonical sorted `(key, depth, logodds)` leaf list — directly
    /// comparable to [`OccupancyOctree::snapshot`] on the live tree,
    /// which is how the stress suite asserts bit-identity with a serial
    /// replay at the pinned epoch.
    ///
    /// [`OccupancyOctree::snapshot`]: crate::OccupancyOctree::snapshot
    pub fn canonical_leaves(&self) -> Vec<(VoxelKey, u8, f32)> {
        self.iter_leaves().canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OctreeF32;
    use omu_geometry::{Point3, PointCloud, Scan};
    use omu_pool::WorkerPool;

    fn scan(origin: Point3, n: usize, phase: f64) -> Scan {
        let cloud: PointCloud = (0..n)
            .map(|i| {
                let a = i as f64 * 0.17 + phase;
                Point3::new(2.2 * a.cos(), 2.2 * a.sin(), ((i % 5) as f64 - 2.0) * 0.15)
            })
            .collect();
        Scan::new(origin, cloud)
    }

    /// The production write path at one shard: the sequential batch walk.
    fn insert(t: &mut OctreeF32, s: &Scan) {
        t.insert_points(s.origin, s.cloud.points(), 1).unwrap();
    }

    #[test]
    fn chunked_vec_addresses_are_stable_across_growth() {
        let mut v: ChunkedVec<u64> = ChunkedVec::new();
        v.push(7);
        let p = v.get(0) as *const u64;
        for i in 1..1000u64 {
            v.push(i);
        }
        assert_eq!(v.len(), 1000);
        assert_eq!(p, v.get(0) as *const u64, "growth must not move rows");
        for i in 0..1000usize {
            let want = if i == 0 { 7 } else { i as u64 };
            assert_eq!(*v.get(i), want);
        }
    }

    #[test]
    fn chunked_vec_clear_keeps_or_drops_chunks() {
        let mut v: ChunkedVec<u32> = ChunkedVec::new();
        for i in 0..200 {
            v.push(i);
        }
        let cap = v.capacity();
        v.clear(false);
        assert_eq!(v.len(), 0);
        assert_eq!(v.capacity(), cap, "capacity kept without pins");
        v.clear(true);
        assert_eq!(v.capacity(), 0, "chunks released when shared");
        v.push(9);
        assert_eq!(*v.get(0), 9);
    }

    #[test]
    fn pin_registry_summary_tracks_min_and_max() {
        let reg = Arc::new(PinRegistry::new());
        assert_eq!(PinRegistry::decode(reg.raw_summary()), None);
        let a = reg.pin(3);
        let b = reg.pin(7);
        let c = reg.pin(3);
        assert_eq!(PinRegistry::decode(reg.raw_summary()), Some((3, 7)));
        assert_eq!(reg.live_pins(), 3);
        drop(a);
        assert_eq!(
            PinRegistry::decode(reg.raw_summary()),
            Some((3, 7)),
            "duplicate pin keeps the epoch alive"
        );
        drop(c);
        assert_eq!(PinRegistry::decode(reg.raw_summary()), Some((7, 7)));
        drop(b);
        assert_eq!(PinRegistry::decode(reg.raw_summary()), None);
    }

    #[test]
    fn snapshot_matches_live_tree_at_publish_and_stays_frozen() {
        let mut t = OctreeF32::new(0.1).unwrap();
        insert(&mut t, &scan(Point3::ZERO, 60, 0.0));
        let at_publish = t.snapshot();
        let snap = t.publish_snapshot();
        assert_eq!(snap.canonical_leaves(), at_publish);

        // Keep writing: the pinned view must not move.
        for k in 1..4 {
            insert(&mut t, &scan(Point3::new(0.05, 0.0, 0.0), 60, k as f64));
        }
        t.debug_validate();
        assert_eq!(snap.canonical_leaves(), at_publish, "snapshot is frozen");
        assert_ne!(t.snapshot(), at_publish, "live tree moved on");

        // A fresh publish sees the new state.
        let snap2 = t.publish_snapshot();
        assert_eq!(snap2.canonical_leaves(), t.snapshot());
        assert!(snap2.epoch() > snap.epoch());
    }

    #[test]
    fn snapshot_reads_mirror_every_query_surface() {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.insert_scan(&scan(Point3::ZERO, 80, 0.3)).unwrap();
        let reference = t.clone();
        let snap = t.publish_snapshot();
        // Mutate the live tree so any accidental live read would differ.
        t.insert_scan(&scan(Point3::new(0.1, 0.1, 0.0), 80, 1.1))
            .unwrap();

        let keys: Vec<VoxelKey> = (0..500u16)
            .map(|i| VoxelKey::new(32700 + i % 70, 32740 + (i * 3) % 60, 32760 + i % 9))
            .collect();
        let mut reader = snap.reader();
        let got = reader.query_batch(&keys);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(got[i], reference.occupancy(key), "key {key:?}");
            assert_eq!(snap.search(key), reference.search(key));
        }
        assert!(reader.counters().probes > 0);

        let origin = Point3::new(0.05, 0.05, 0.05);
        for i in 0..24 {
            let a = i as f64 * 0.26;
            let dir = Point3::new(a.cos(), a.sin(), 0.1);
            let live = reference.cast_ray(origin, dir, 8.0, false).unwrap();
            let pinned = reader.cast_ray(origin, dir, 8.0, false).unwrap();
            assert_eq!(live, pinned, "ray {i}");
        }
        for i in 0..12 {
            let c = Point3::new(1.8 + 0.05 * i as f64, 0.2, 0.0);
            assert_eq!(
                reader.collides_sphere(c, 0.4).unwrap(),
                reference.collides_sphere(c, 0.4).unwrap()
            );
        }
        let aabb = Aabb::new(Point3::new(1.0, -1.0, -0.4), Point3::new(2.5, 1.0, 0.4));
        let live_box: Vec<_> = reference
            .iter_leaves_in_aabb(&aabb)
            .unwrap()
            .map(|l| (l.key, l.depth))
            .collect();
        let snap_box: Vec<_> = snap
            .iter_leaves_in_aabb(&aabb)
            .unwrap()
            .map(|l| (l.key, l.depth))
            .collect();
        assert_eq!(live_box, snap_box);
    }

    #[test]
    fn concurrent_readers_see_their_pinned_epochs() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let pool = WorkerPool::new(4);
        type PinnedEpoch = (Snapshot<f32>, Vec<(VoxelKey, u8, f32)>);
        let mut pinned: Vec<PinnedEpoch> = Vec::new();
        for k in 0..4 {
            insert(&mut t, &scan(Point3::ZERO, 50, 0.4 * k as f64));
            pinned.push((t.publish_snapshot(), t.snapshot()));
        }
        pool.scope(|s| {
            for (snap, want) in &pinned {
                for _ in 0..2 {
                    let snap = snap.clone();
                    s.spawn(move || {
                        assert_eq!(snap.canonical_leaves(), *want);
                    });
                }
            }
        });
        t.debug_validate();
    }

    #[test]
    fn reclamation_recycles_rows_only_after_pins_drop() {
        let mut t = OctreeF32::new(0.1).unwrap();
        insert(&mut t, &scan(Point3::ZERO, 60, 0.0));
        let snap = t.publish_snapshot();
        // Writing under a live pin copies rows instead of mutating them.
        insert(&mut t, &scan(Point3::ZERO, 60, 0.5));
        let mid = t.snapshot_stats();
        assert!(
            mid.node_rows_copied + mid.leaf_rows_copied > 0,
            "writes under a pin must COW"
        );
        assert!(mid.rows_awaiting_reclaim > 0);
        t.debug_validate();

        drop(snap);
        // The next write entry syncs pins and drains the retire queues.
        insert(&mut t, &scan(Point3::ZERO, 60, 1.0));
        let end = t.snapshot_stats();
        assert_eq!(end.rows_awaiting_reclaim, 0, "no pins → fully reclaimed");
        assert!(end.rows_reclaimed >= mid.rows_awaiting_reclaim);
        assert_eq!(end.pinned_snapshots, 0);
        t.debug_validate();
    }

    #[test]
    fn unpinned_writes_pay_no_cow() {
        let mut t = OctreeF32::new(0.1).unwrap();
        for k in 0..3 {
            insert(&mut t, &scan(Point3::ZERO, 60, 0.3 * k as f64));
        }
        let s = t.snapshot_stats();
        assert_eq!(s.node_rows_copied, 0);
        assert_eq!(s.leaf_rows_copied, 0);
        assert_eq!(s.rows_retired, 0);
    }

    #[test]
    fn cloned_tree_does_not_share_pins_or_storage() {
        let mut t = OctreeF32::new(0.1).unwrap();
        insert(&mut t, &scan(Point3::ZERO, 40, 0.0));
        let snap = t.publish_snapshot();
        let frozen = snap.canonical_leaves();

        let mut clone = t.clone();
        insert(&mut clone, &scan(Point3::ZERO, 40, 0.7));
        assert_eq!(
            clone.snapshot_stats().node_rows_copied,
            0,
            "the original's pin must not throttle the clone"
        );
        assert_eq!(snap.canonical_leaves(), frozen);
        clone.debug_validate();
        t.debug_validate();
    }

    #[test]
    fn snapshot_of_empty_tree_is_empty() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let snap = t.publish_snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.canonical_leaves(), Vec::new());
        assert_eq!(snap.occupancy(VoxelKey::ORIGIN), Occupancy::Unknown);
        assert_eq!(
            snap.reader()
                .cast_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 2.0, false)
                .unwrap(),
            t.cast_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 2.0, false)
                .unwrap()
        );
    }

    #[test]
    fn snapshot_survives_clear_of_the_live_tree() {
        let mut t = OctreeF32::new(0.1).unwrap();
        insert(&mut t, &scan(Point3::ZERO, 50, 0.0));
        let snap = t.publish_snapshot();
        let frozen = snap.canonical_leaves();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(snap.canonical_leaves(), frozen);
        // And the cleared tree is fully usable again.
        insert(&mut t, &scan(Point3::ZERO, 50, 0.9));
        t.debug_validate();
        assert_eq!(snap.canonical_leaves(), frozen);
    }

    #[test]
    fn snapshot_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot<f32>>();
        assert_send_sync::<Snapshot<omu_geometry::FixedLogOdds>>();
        assert_send_sync::<SnapshotStats>();
    }
}
