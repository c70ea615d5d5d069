//! Epoch-pinned snapshots: lock-free concurrent reads under live writes.
//!
//! Every engine in the crate is thread-confined: parallel reads borrow
//! `&self`, parallel writes take `&mut self`. A serving deployment —
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
use omu_raycast::RayWalk;
use serde::{Deserialize, Serialize};

use crate::arena::{child_shard_of, handle, oct_of, row_of, Arena, NodeStore};
use crate::counters::QueryCounters;
use crate::iter::LeafInfo;
use crate::node::{LeafRow, Node, NodeRow, NIL};
use crate::query::{cast_ray_resuming, collides_sphere_with, RayCastResult};
use crate::query_batch::serve_morton_coalesced;

/// `cow_max_pin` value meaning "no snapshot is pinned": every row may be
/// mutated in place.
pub(crate) const NO_PINS: u32 = u32::MAX;

/// log2 of the first chunk's row capacity. Subsequent chunks double
/// (64, 64, 128, 256, …), so total slack stays within the ~2× envelope
/// a doubling `Vec` already paid before this module existed.
const FIRST_CHUNK_POW: u32 = 6;
const FIRST_CHUNK: usize = 1 << FIRST_CHUNK_POW;

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
    fn locate(i: usize) -> (usize, usize) {
        let v = i + FIRST_CHUNK;
        let k = usize::BITS - 1 - v.leading_zeros();
        ((k - FIRST_CHUNK_POW) as usize, v ^ (1usize << k))
    }

    #[inline]
    pub fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len);
        let (c, o) = Self::locate(i);
        // SAFETY: the borrow of `self` keeps the writer from handing out
        // `&mut` aliases on this thread; cross-thread, see the `Chunk`
        // Sync justification (readers only ever touch immutable cells).
        unsafe { &*self.chunks[c].cells[o].get() }
    }

    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let (c, o) = Self::locate(i);
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
        let (c, o) = Self::locate(self.len);
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
    /// clone per chunk).
    pub fn share(&self) -> SnapTable<T> {
        SnapTable {
            chunks: self.chunks.clone(),
            len: self.len,
        }
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

/// A snapshot's immutable view of one shard-tier's rows: the chunk table
/// and length captured at publish time.
pub(crate) struct SnapTable<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

impl<T: Copy> SnapTable<T> {
    #[inline]
    fn get(&self, i: usize) -> T {
        assert!(i < self.len, "snapshot row out of range");
        let (c, o) = ChunkedVec::<T>::locate(i);
        // SAFETY: rows reachable from a pinned snapshot are never
        // mutated while the pin is alive — the writer copies them out
        // (COW) instead — so this read cannot race a write.
        unsafe { *self.chunks[c].cells[o].get() }
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
/// iteration — returns exactly what the live tree would have returned
/// at the publish instant. Dropping the last clone unpins the epoch,
/// letting the writer reclaim rows it copied out while the snapshot
/// was alive.
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
    /// Per-shard chunk tables, indexed by shard id (8 branches + spine).
    node_tables: Vec<SnapTable<NodeRow<V>>>,
    leaf_tables: Vec<SnapTable<LeafRow<V>>>,
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

impl<V: LogOdds> SnapInner<V> {
    #[inline]
    fn node(&self, h: u32) -> Node<V> {
        if h == self.root {
            return self.root_node;
        }
        self.node_tables[crate::arena::shard_of(h)].get(row_of(h) as usize)[oct_of(h)]
    }

    #[inline]
    fn leaf_value(&self, h: u32) -> V {
        self.leaf_tables[crate::arena::shard_of(h)].get(row_of(h) as usize)[oct_of(h)]
    }

    fn search(&self, key: VoxelKey) -> Option<(V, u8)> {
        if self.root == NIL {
            return None;
        }
        let mut node = self.root;
        for d in 0..TREE_DEPTH {
            let n = self.node(node);
            if n.is_leaf() {
                return Some((n.value, d));
            }
            let pos = key.child_index_at(d).index();
            if !n.has_child(pos) {
                return None;
            }
            node = handle(child_shard_of(node), n.row(), pos);
        }
        Some((self.leaf_value(node), TREE_DEPTH))
    }
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
        let (node_tables, leaf_tables) = arena
            .shards()
            .iter()
            .map(|s| s.share_tables())
            .unzip::<_, _, Vec<_>, Vec<_>>();
        let pin = arena.publish_pin();
        Snapshot {
            inner: Arc::new(SnapInner {
                node_tables,
                leaf_tables,
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

    /// Root handle for the serializer's pre-order walk.
    pub(crate) fn root_handle(&self) -> u32 {
        self.inner.root
    }

    /// The node at `h`, read from the frozen rows (root served by
    /// value, since its live spine cell is COW-exempt).
    pub(crate) fn node_at(&self, h: u32) -> Node<V> {
        self.inner.node(h)
    }

    /// The depth-16 leaf value at `h`.
    pub(crate) fn leaf_at(&self, h: u32) -> V {
        self.inner.leaf_value(h)
    }

    /// Handle of `parent`'s child at octant `pos` (`n` is `parent`'s
    /// node, passed in so callers walking the tree read each row once).
    /// Lives here rather than in the serializer because composing
    /// handles is confined to the arena-layer modules.
    pub(crate) fn child_handle(&self, parent: u32, n: &Node<V>, pos: usize) -> u32 {
        handle(child_shard_of(parent), n.row(), pos)
    }

    /// Searches for the node covering `key` — same contract and result
    /// as [`OccupancyOctree::search`](crate::OccupancyOctree::search)
    /// on the live tree at publish time.
    pub fn search(&self, key: VoxelKey) -> Option<(V, u8)> {
        self.inner.search(key)
    }

    /// The log-odds value covering `key` as `f32`, if observed.
    pub fn logodds(&self, key: VoxelKey) -> Option<f32> {
        self.search(key).map(|(v, _)| v.to_f32())
    }

    /// Occupancy classification of the voxel at `key`.
    pub fn occupancy(&self, key: VoxelKey) -> Occupancy {
        match self.search(key) {
            Some((v, _)) => self.inner.resolved.classify(v),
            None => Occupancy::Unknown,
        }
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

    /// Borrows the snapshot as a cached-descent [`SnapshotReader`] —
    /// the read-surface workhorse for coherent probe streams (batched
    /// queries, ray casts, collision sweeps).
    pub fn reader(&self) -> SnapshotReader<'_, V> {
        let mut path = [NIL; TREE_DEPTH as usize + 1];
        path[0] = self.inner.root;
        SnapshotReader {
            inner: &self.inner,
            path,
            depth: 0,
            prev: None,
            walk: None,
            order: Vec::new(),
            counters: QueryCounters::default(),
        }
    }

    /// Casts one query ray (convenience over [`Self::reader`]).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the origin is outside the map or the
    /// direction is degenerate.
    pub fn cast_ray(
        &self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, KeyError> {
        self.reader()
            .cast_ray(origin, direction, max_range, ignore_unknown)
    }

    /// Casts a batch of query rays through one cached-descent reader.
    pub fn cast_rays(
        &self,
        rays: &[(Point3, Point3)],
        max_range: f64,
        ignore_unknown: bool,
    ) -> Vec<Result<RayCastResult, KeyError>> {
        let mut reader = self.reader();
        rays.iter()
            .map(|&(origin, dir)| reader.cast_ray(origin, dir, max_range, ignore_unknown))
            .collect()
    }

    /// True when any occupied voxel intersects the sphere (convenience
    /// over [`Self::reader`]).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the probe region leaves the map.
    pub fn collides_sphere(&self, center: Point3, radius: f64) -> Result<bool, KeyError> {
        self.reader().collides_sphere(center, radius)
    }

    /// Classifies a key batch (convenience over [`Self::reader`]).
    pub fn query_batch(&self, keys: &[VoxelKey]) -> Vec<Occupancy> {
        let mut results = Vec::new();
        self.reader().query_batch(keys, &mut results);
        results
    }

    /// Iterates over all leaves of the pinned map.
    pub fn iter_leaves(&self) -> SnapLeafIter<'_, V> {
        let mut stack = Vec::new();
        if self.inner.root != NIL {
            stack.push((self.inner.root, VoxelKey::new(0, 0, 0), 0u8));
        }
        SnapLeafIter {
            inner: &self.inner,
            bounds: None,
            stack,
        }
    }

    /// Iterates the leaves whose regions intersect the key box
    /// `[min, max]` (inclusive, per axis).
    pub fn iter_leaves_in_box(&self, min: VoxelKey, max: VoxelKey) -> SnapLeafIter<'_, V> {
        let mut stack = Vec::new();
        if self.inner.root != NIL {
            stack.push((self.inner.root, VoxelKey::new(0, 0, 0), 0u8));
        }
        SnapLeafIter {
            inner: &self.inner,
            bounds: Some((min, max)),
            stack,
        }
    }

    /// Iterates the leaves intersecting a metric box.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when a corner of the box is outside the map.
    pub fn iter_leaves_in_aabb(&self, aabb: &Aabb) -> Result<SnapLeafIter<'_, V>, KeyError> {
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
        let mut v: Vec<_> = self
            .iter_leaves()
            .map(|l| (l.key, l.depth, l.logodds))
            .collect();
        v.sort_by_key(|&(key, depth, _)| (key, depth));
        v
    }
}

/// A cached-descent cursor over a [`Snapshot`] — the snapshot mirror of
/// [`DescentCursor`](crate::DescentCursor), with the same amortized-O(1)
/// probe cost on coherent streams and the same bit-identical results.
/// Each reader thread owns one; readers never synchronize with each
/// other or the writer.
pub struct SnapshotReader<'s, V: LogOdds> {
    inner: &'s SnapInner<V>,
    path: [u32; TREE_DEPTH as usize + 1],
    depth: u8,
    prev: Option<VoxelKey>,
    walk: Option<RayWalk>,
    /// Morton scratch for [`Self::query_batch`].
    order: Vec<(u64, u32)>,
    counters: QueryCounters,
}

impl<V: LogOdds> fmt::Debug for SnapshotReader<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("epoch", &self.inner.epoch)
            .field("depth", &self.depth)
            .field("prev", &self.prev)
            .finish_non_exhaustive()
    }
}

impl<V: LogOdds> SnapshotReader<'_, V> {
    /// Searches for the node covering `key`, resuming from the deepest
    /// level shared with the previously probed key.
    pub fn search(&mut self, key: VoxelKey) -> Option<(V, u8)> {
        self.counters.probes += 1;
        if self.inner.root == NIL {
            return None;
        }
        let resume = match self.prev {
            Some(p) => p.common_prefix_depth(key).min(self.depth),
            None => 0,
        } as usize;
        self.counters.reused_levels += resume as u64;
        self.prev = Some(key);

        let mut node = self.path[resume];
        for d in resume..TREE_DEPTH as usize {
            let n = self.inner.node(node);
            if n.is_leaf() {
                self.depth = d as u8;
                return Some((n.value, d as u8));
            }
            self.counters.node_visits += 1;
            let pos = key.child_index_at(d as u8).index();
            if !n.has_child(pos) {
                self.depth = d as u8;
                return None;
            }
            node = handle(child_shard_of(node), n.row(), pos);
            self.path[d + 1] = node;
        }
        self.depth = TREE_DEPTH;
        Some((self.inner.leaf_value(node), TREE_DEPTH))
    }

    /// Occupancy classification of the voxel at `key`.
    pub fn occupancy(&mut self, key: VoxelKey) -> Occupancy {
        match self.search(key) {
            Some((v, _)) => self.inner.resolved.classify(v),
            None => Occupancy::Unknown,
        }
    }

    #[inline]
    fn probe(&mut self, key: VoxelKey) -> (Occupancy, f32) {
        match self.search(key) {
            Some((v, _)) => (self.inner.resolved.classify(v), v.to_f32()),
            None => (Occupancy::Unknown, 0.0),
        }
    }

    /// Casts a query ray — same contract and result as
    /// [`OccupancyOctree::cast_ray`](crate::OccupancyOctree::cast_ray)
    /// on the live tree at publish time.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the origin is outside the map or the
    /// direction is degenerate.
    pub fn cast_ray(
        &mut self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, KeyError> {
        self.counters.rays += 1;
        let conv = self.inner.conv;
        let mut walk = self.walk.take().unwrap_or_else(RayWalk::idle);
        let res = cast_ray_resuming(
            &conv,
            &mut walk,
            origin,
            direction,
            max_range,
            ignore_unknown,
            |key| self.probe(key),
        );
        self.walk = Some(walk);
        res
    }

    /// Sphere collision probe.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the probe region leaves the map.
    pub fn collides_sphere(&mut self, center: Point3, radius: f64) -> Result<bool, KeyError> {
        let conv = self.inner.conv;
        collides_sphere_with(&conv, center, radius, |key| self.occupancy(key))
    }

    /// Classifies `keys` into `results` through the Morton-coalesced
    /// batch engine — same results as
    /// [`OccupancyOctree::query_batch`](crate::OccupancyOctree::query_batch)
    /// at publish time.
    pub fn query_batch(&mut self, keys: &[VoxelKey], results: &mut Vec<Occupancy>) {
        results.clear();
        results.resize(keys.len(), Occupancy::Unknown);
        self.counters.batch_queries += keys.len() as u64;
        let mut order = std::mem::take(&mut self.order);
        let mut coalesced = 0u64;
        serve_morton_coalesced(
            keys,
            &mut order,
            results,
            |key| self.occupancy(key),
            || coalesced += 1,
        );
        self.counters.batch_coalesced += coalesced;
        self.order = order;
    }

    /// The read-side counters this reader accumulated.
    pub fn counters(&self) -> &QueryCounters {
        &self.counters
    }
}

/// Depth-first leaf iterator over a [`Snapshot`], optionally bounded to
/// a key box — the snapshot mirror of [`LeafIter`](crate::LeafIter) /
/// [`LeafInBoxIter`](crate::LeafInBoxIter).
pub struct SnapLeafIter<'s, V: LogOdds> {
    inner: &'s SnapInner<V>,
    bounds: Option<(VoxelKey, VoxelKey)>,
    stack: Vec<(u32, VoxelKey, u8)>,
}

impl<V: LogOdds> fmt::Debug for SnapLeafIter<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapLeafIter")
            .field("epoch", &self.inner.epoch)
            .field("bounds", &self.bounds)
            .field("pending", &self.stack.len())
            .finish_non_exhaustive()
    }
}

impl<V: LogOdds> Iterator for SnapLeafIter<'_, V> {
    type Item = LeafInfo;

    fn next(&mut self) -> Option<LeafInfo> {
        while let Some((node, key, depth)) = self.stack.pop() {
            if let Some((min, max)) = self.bounds {
                let span = 1u32 << (TREE_DEPTH - depth);
                let overlaps = |anchor: u16, lo: u16, hi: u16| {
                    let a = anchor as u32;
                    a <= hi as u32 && a + span > lo as u32
                };
                if !(overlaps(key.x, min.x, max.x)
                    && overlaps(key.y, min.y, max.y)
                    && overlaps(key.z, min.z, max.z))
                {
                    continue;
                }
            }
            if depth == TREE_DEPTH {
                let v = self.inner.leaf_value(node);
                return Some(LeafInfo {
                    key,
                    depth,
                    logodds: v.to_f32(),
                    occupancy: self.inner.resolved.classify(v),
                });
            }
            let n = self.inner.node(node);
            if n.is_leaf() {
                return Some(LeafInfo {
                    key,
                    depth,
                    logodds: n.value.to_f32(),
                    occupancy: self.inner.resolved.classify(n.value),
                });
            }
            let bit = TREE_DEPTH - 1 - depth;
            let shard = child_shard_of(node);
            let row = n.row();
            for pos in (0..8usize).rev() {
                if n.has_child(pos) {
                    let child_key = VoxelKey::new(
                        key.x | (((pos & 1) as u16) << bit),
                        key.y | ((((pos >> 1) & 1) as u16) << bit),
                        key.z | ((((pos >> 2) & 1) as u16) << bit),
                    );
                    self.stack
                        .push((handle(shard, row, pos), child_key, depth + 1));
                }
            }
        }
        None
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
        let mut got = Vec::new();
        reader.query_batch(&keys, &mut got);
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
            let pinned = snap.cast_ray(origin, dir, 8.0, false).unwrap();
            assert_eq!(live, pinned, "ray {i}");
        }
        for i in 0..12 {
            let c = Point3::new(1.8 + 0.05 * i as f64, 0.2, 0.0);
            assert_eq!(
                snap.collides_sphere(c, 0.4).unwrap(),
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
            snap.cast_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 2.0, false)
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
