//! The batched query engine: the cached-descent cursor and
//! Morton-coalesced key batches — the read-side counterpart of the
//! `batch` update module.
//!
//! The scalar query path ([`search`](OccupancyOctree::search)) pays a
//! full root-to-leaf descent per probe. Planner workloads probe in
//! streams whose consecutive keys are spatially adjacent — every DDA
//! step of a query ray, every voxel of a collision ball — and adjacent
//! keys share long root-path prefixes. A [`DescentCursor`] keeps the
//! node path of the previous probe and re-descends only from the deepest
//! common ancestor, so a ray's per-step probe cost drops from O(depth)
//! to amortized O(1):
//!
//! 1. [`DescentCursor::search`] resumes from the deepest level shared
//!    with the previous key (computed in one XOR via
//!    [`common_prefix_depth`](omu_geometry::VoxelKey::common_prefix_depth)).
//!    The cursor runs on the crate's one row view, so the live tree
//!    ([`OccupancyOctree::reader`]) and an epoch snapshot
//!    ([`Snapshot::reader`](crate::Snapshot::reader)) hand out the same
//!    reader.
//! 2. [`DescentCursor::query_batch`] sorts a key batch by Morton code
//!    (subtrees become contiguous runs, maximizing prefix reuse),
//!    coalesces duplicate keys, serves the sorted order through the
//!    cursor and permutes results back to input order.
//! 3. [`DescentCursor::cast_rays`] casts a ray batch through the cursor
//!    in input order and stops at the first error.
//!
//! A cursor serves one thread. Parallel reads publish a
//! [`Snapshot`](crate::Snapshot) and give each reader thread its own
//! `reader()`. [`OccupancyOctree::with_reader`] runs a closure on a fresh
//! live cursor and adds the cursor's counters to
//! [`OccupancyOctree::query_counters`].
//!
//! Every path returns results **bit-identical** to probing the same keys
//! through the scalar [`search`](OccupancyOctree::search) — the cursor
//! reads the same arena nodes, it just skips re-reading the shared
//! prefix — which `tests/query_surface.rs` property-tests across
//! backends, pruning modes and shuffled input orders.

use omu_geometry::{KeyError, LogOdds, Occupancy, Point3, VoxelKey, TREE_DEPTH};
use omu_raycast::RayWalk;

use crate::counters::QueryCounters;
use crate::node::NIL;
use crate::query::{cast_ray_resuming, collides_sphere_with, RayCastResult};
use crate::snapshot::TreeView;
use crate::tree::OccupancyOctree;

/// `path[d]` = node at depth `d`; the root lives at index 0 and a finest
/// leaf at index [`TREE_DEPTH`].
const PATH_LEN: usize = TREE_DEPTH as usize + 1;

/// A read-only descent cursor that amortizes root-to-leaf walks across
/// consecutive probes.
///
/// The cursor caches the node path of the last probed key. A new probe
/// resumes from the deepest tree level its key shares with the previous
/// one, so spatially coherent probe streams (query-ray DDA steps,
/// collision-ball sweeps, Morton-sorted batches) descend O(1) levels per
/// probe instead of O([`TREE_DEPTH`]).
///
/// Results are bit-identical to [`OccupancyOctree::search`]: the cursor
/// reads the same rows, it only skips re-reading levels the previous
/// descent already resolved. The cursor borrows its source — the live
/// tree ([`OccupancyOctree::reader`]) or an epoch snapshot
/// ([`Snapshot::reader`](crate::Snapshot::reader)) — so the map cannot
/// change underneath the cached path.
///
/// # Examples
///
/// ```
/// use omu_geometry::{Point3, PointCloud, Scan, VoxelKey};
/// use omu_octree::OctreeF32;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tree = OctreeF32::new(0.1)?;
/// tree.insert_scan(&Scan::new(
///     Point3::ZERO,
///     [Point3::new(1.0, 0.0, 0.0)].into_iter().collect::<PointCloud>(),
/// ))?;
/// let mut cursor = tree.reader();
/// let a = cursor.search(VoxelKey::ORIGIN);
/// let b = cursor.search(VoxelKey::new(32769, 32768, 32768));
/// assert_eq!(a, tree.search(VoxelKey::ORIGIN));
/// assert_eq!(b, tree.search(VoxelKey::new(32769, 32768, 32768)));
/// assert!(cursor.counters().reused_levels > 0, "siblings share a prefix");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DescentCursor<'t, V: LogOdds> {
    view: TreeView<'t, V>,
    /// Cached node path of the previous key; entries `0..=depth` valid.
    path: [u32; PATH_LEN],
    /// Depth at which the previous descent stopped (deepest valid entry).
    depth: u8,
    prev: Option<VoxelKey>,
    /// Reusable DDA iterator: consecutive [`Self::cast_ray`] calls
    /// re-aim it ([`RayWalk::restart`]) instead of constructing per-ray
    /// iterator state.
    walk: Option<RayWalk>,
    /// Morton scratch for [`Self::query_batch`].
    order: Vec<(u64, u32)>,
    counters: QueryCounters,
}

impl<'t, V: LogOdds> DescentCursor<'t, V> {
    pub(crate) fn new(view: TreeView<'t, V>) -> Self {
        let mut path = [NIL; PATH_LEN];
        path[0] = view.root();
        DescentCursor {
            view,
            path,
            depth: 0,
            prev: None,
            walk: None,
            order: Vec::new(),
            counters: QueryCounters::default(),
        }
    }

    /// Searches for the node covering `key` — same contract and result
    /// as [`OccupancyOctree::search`], with the descent resumed from the
    /// deepest level shared with the previously probed key.
    ///
    /// Each resumed level is one dependent load: the child's handle is
    /// arithmetic on the parent node already in hand (sibling-row
    /// layout), and presence is a mask test.
    pub fn search(&mut self, key: VoxelKey) -> Option<(V, u8)> {
        self.counters.probes += 1;
        if self.view.is_empty() {
            return None;
        }
        let resume = match self.prev {
            Some(p) => p.common_prefix_depth(key).min(self.depth),
            None => 0,
        } as usize;
        self.counters.reused_levels += resume as u64;
        self.prev = Some(key);

        let mut node = self.path[resume];
        let mut d = resume;
        if d < TREE_DEPTH as usize {
            let mut n = if d == 0 {
                self.view.root_node()
            } else {
                self.view.node(node)
            };
            loop {
                if n.is_leaf() {
                    // A pruned (or coarse) leaf covers the whole subtree.
                    self.depth = d as u8;
                    return Some((n.value, d as u8));
                }
                self.counters.node_visits += 1;
                let pos = key.child_index_at(d as u8).index();
                if !n.has_child(pos) {
                    // The node has children, just not on this path.
                    self.depth = d as u8;
                    return None;
                }
                // One dependent load per level: the child handle is
                // arithmetic on the node already in hand.
                node = self.view.child(node, &n, pos);
                d += 1;
                self.path[d] = node;
                if d == TREE_DEPTH as usize {
                    break;
                }
                n = self.view.node(node);
            }
        }
        // Reaching (or resuming at) full depth means `node` is a depth-16
        // voxel living in a value-only leaf row.
        self.depth = TREE_DEPTH;
        Some((self.view.leaf_value(node), TREE_DEPTH))
    }

    /// Occupancy classification of the voxel at `key` (the cursor form
    /// of [`OccupancyOctree::occupancy`]).
    pub fn occupancy(&mut self, key: VoxelKey) -> Occupancy {
        match self.search(key) {
            Some((v, _)) => self.view.resolved.classify(v),
            None => Occupancy::Unknown,
        }
    }

    /// Classification plus `f32` log-odds — the probe shape
    /// [`cast_ray_with`] consumes (the log-odds is only meaningful for
    /// occupied voxels).
    #[inline]
    fn probe(&mut self, key: VoxelKey) -> (Occupancy, f32) {
        match self.search(key) {
            Some((v, _)) => (self.view.resolved.classify(v), v.to_f32()),
            None => (Occupancy::Unknown, 0.0),
        }
    }

    /// Casts a query ray through the cursor: every DDA step's probe
    /// resumes from the previous step's path, so adjacent steps (which
    /// share almost their whole root path) cost O(1) levels. Same
    /// contract and result as [`OccupancyOctree::cast_ray`].
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
        let conv = self.view.conv;
        let mut walk = self.walk.take().unwrap_or_else(RayWalk::idle);
        let res = cast_ray_resuming(
            conv,
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

    /// Sphere collision probe through the cursor (the grid sweep inside
    /// the ball probes adjacent voxels, which share long prefixes). Same
    /// contract and result as [`OccupancyOctree::collides_sphere`].
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the probe region leaves the map.
    pub fn collides_sphere(&mut self, center: Point3, radius: f64) -> Result<bool, KeyError> {
        let conv = self.view.conv;
        collides_sphere_with(conv, center, radius, |key| self.occupancy(key))
    }

    /// Classifies `keys`, returning occupancies in input order, through
    /// the Morton-coalesced batch engine, with the sort scratch owned by
    /// the cursor. The output is bit-identical to calling
    /// [`Self::occupancy`] per key, in any input order.
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::{Occupancy, Point3, PointCloud, Scan, VoxelKey};
    /// use omu_octree::OctreeF32;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// tree.insert_scan(&Scan::new(
    ///     Point3::ZERO,
    ///     [Point3::new(1.0, 0.0, 0.0)].into_iter().collect::<PointCloud>(),
    /// ))?;
    /// let keys = [tree.converter().coord_to_key(Point3::new(1.0, 0.0, 0.0))?,
    ///             VoxelKey::new(100, 100, 100)];
    /// assert_eq!(
    ///     tree.reader().query_batch(&keys),
    ///     [Occupancy::Occupied, Occupancy::Unknown]
    /// );
    /// # Ok(())
    /// # }
    /// ```
    pub fn query_batch(&mut self, keys: &[VoxelKey]) -> Vec<Occupancy> {
        let mut results = vec![Occupancy::Unknown; keys.len()];
        let mut order = std::mem::take(&mut self.order);
        let mut coalesced = 0u64;
        serve_morton_coalesced(
            keys,
            &mut order,
            &mut results,
            |key| self.occupancy(key),
            || coalesced += 1,
        );
        self.order = order;
        self.counters.batch_queries += keys.len() as u64;
        self.counters.batch_coalesced += coalesced;
        results
    }

    /// Casts a batch of query rays (`(origin, direction)` pairs) through
    /// this cursor, returning results in input order; each equals
    /// [`Self::cast_ray`] on the same ray.
    ///
    /// # Errors
    ///
    /// Returns the first [`KeyError`] in input order (a ray whose origin
    /// is outside the map or whose direction is degenerate); no ray after
    /// it is cast.
    pub fn cast_rays(
        &mut self,
        rays: &[(Point3, Point3)],
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<Vec<RayCastResult>, KeyError> {
        rays.iter()
            .map(|&(origin, dir)| self.cast_ray(origin, dir, max_range, ignore_unknown))
            .collect()
    }

    /// The read-side operation counters this cursor accumulated.
    pub fn counters(&self) -> &QueryCounters {
        &self.counters
    }

    /// Consumes the cursor, returning its counters
    /// ([`OccupancyOctree::with_reader`] merges them into the tree's).
    pub fn into_counters(self) -> QueryCounters {
        self.counters
    }
}

/// Serves `keys` through `probe` in Morton-sorted order with duplicate
/// coalescing — the batch scaffolding shared by the software engine
/// ([`DescentCursor::query_batch`]) and the accelerator's voxel query
/// unit (`OmuAccelerator::query_batch` in `omu-core`).
///
/// `order` is caller-owned scratch (cleared and refilled with sorted
/// `(morton code, input index)` pairs); `results[i]` receives the
/// classification of `keys[i]`. Identical Morton codes are identical
/// keys, so the sort makes duplicates adjacent and they coalesce onto
/// the previous result without probing — `on_duplicate` runs once per
/// coalesced key so callers can account the skipped work.
///
/// # Panics
///
/// Panics when `keys` holds more than `u32::MAX` entries (the scratch
/// indexes with `u32`) or `results` is shorter than `keys`.
pub fn serve_morton_coalesced(
    keys: &[VoxelKey],
    order: &mut Vec<(u64, u32)>,
    results: &mut [Occupancy],
    mut probe: impl FnMut(VoxelKey) -> Occupancy,
    mut on_duplicate: impl FnMut(),
) {
    assert!(
        keys.len() <= u32::MAX as usize,
        "batch too large to index with u32"
    );
    order.clear();
    order.extend(
        keys.iter()
            .enumerate()
            .map(|(i, k)| (k.morton_code(), i as u32)),
    );
    order.sort_unstable();
    let mut prev: Option<(u64, Occupancy)> = None;
    for &(code, idx) in order.iter() {
        let occ = match prev {
            Some((prev_code, occ)) if prev_code == code => {
                on_duplicate();
                occ
            }
            _ => probe(keys[idx as usize]),
        };
        prev = Some((code, occ));
        results[idx as usize] = occ;
    }
}

impl<V: LogOdds> OccupancyOctree<V> {
    /// Borrows the live tree as a [`DescentCursor`], the same reader an
    /// epoch [`Snapshot::reader`](crate::Snapshot::reader) hands out. The
    /// cursor keeps its own [`QueryCounters`]; [`Self::with_reader`] adds
    /// them to [`Self::query_counters`].
    pub fn reader(&self) -> DescentCursor<'_, V> {
        DescentCursor::new(self.view())
    }

    /// Runs `read` on a fresh [`reader`](Self::reader) and adds the
    /// cursor's counters to [`Self::query_counters`] — the counted form
    /// of a live read, through which the `omu-map` facade serves every
    /// software batch, ray and sphere query.
    pub fn with_reader<R>(&mut self, read: impl FnOnce(&mut DescentCursor<'_, V>) -> R) -> R {
        let mut cursor = self.reader();
        let out = read(&mut cursor);
        let counters = cursor.into_counters();
        self.query_counters.merge(&counters);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OctreeF32;
    use omu_geometry::{PointCloud, Scan};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mapped_tree(pruning: bool) -> OctreeF32 {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.set_pruning_enabled(pruning);
        let mut cloud = PointCloud::new();
        for i in 0..64 {
            let a = i as f64 * 0.098;
            cloud.push(Point3::new(
                2.0 * a.cos(),
                2.0 * a.sin(),
                ((i % 8) as f64 - 4.0) * 0.2,
            ));
        }
        t.insert_scan(&Scan::new(Point3::new(0.01, 0.01, 0.01), cloud))
            .unwrap();
        t
    }

    fn random_keys(n: usize, seed: u64) -> Vec<VoxelKey> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                VoxelKey::new(
                    rng.random_range(32700..32850),
                    rng.random_range(32700..32850),
                    rng.random_range(32700..32850),
                )
            })
            .collect()
    }

    #[test]
    fn cursor_matches_scalar_search_on_probe_streams() {
        for pruning in [true, false] {
            let t = mapped_tree(pruning);
            let keys = random_keys(500, 7);
            let mut cursor = t.reader();
            for &k in &keys {
                assert_eq!(cursor.search(k), t.search(k), "pruning={pruning} key={k}");
            }
            let c = cursor.counters();
            assert_eq!(c.probes, 500);
            assert!(c.reused_levels > 0, "random nearby keys share prefixes");
        }
    }

    #[test]
    fn cursor_on_empty_tree_is_unknown() {
        let t = OctreeF32::new(0.1).unwrap();
        let mut cursor = t.reader();
        assert_eq!(cursor.search(VoxelKey::ORIGIN), None);
        assert_eq!(cursor.occupancy(VoxelKey::ORIGIN), Occupancy::Unknown);
        assert_eq!(cursor.counters().node_visits, 0);
    }

    #[test]
    fn query_batch_matches_per_key_in_input_order() {
        let mut t = mapped_tree(true);
        let mut keys = random_keys(300, 11);
        // Include exact duplicates to exercise coalescing.
        keys.extend_from_slice(&random_keys(50, 11));
        let expected: Vec<Occupancy> = keys.iter().map(|&k| t.occupancy(k)).collect();
        let got = t.with_reader(|r| r.query_batch(&keys));
        assert_eq!(got, expected);
        let c = *t.query_counters();
        assert_eq!(c.batch_queries, 350);
        assert!(c.batch_coalesced >= 50, "duplicates must coalesce");
        assert!(c.prefix_reuse_rate() > 0.3, "Morton order reuses prefixes");
    }

    #[test]
    fn cached_cast_ray_matches_per_probe() {
        let mut t = mapped_tree(true);
        for i in 0..16 {
            let a = i as f64 * 0.39;
            let dir = Point3::new(a.cos(), a.sin(), 0.05);
            let origin = Point3::new(0.01, 0.01, 0.01);
            for ignore in [true, false] {
                let scalar = t.cast_ray(origin, dir, 5.0, ignore).unwrap();
                let cached = t
                    .with_reader(|r| r.cast_ray(origin, dir, 5.0, ignore))
                    .unwrap();
                assert_eq!(scalar, cached, "ray {i} ignore={ignore}");
            }
        }
        let c = *t.query_counters();
        assert_eq!(c.rays, 32);
        assert!(
            c.prefix_reuse_rate() > 0.7,
            "DDA steps share long prefixes: reuse = {:.2}",
            c.prefix_reuse_rate()
        );
    }

    #[test]
    fn cast_rays_matches_sequential_and_errors_in_order() {
        let mut t = mapped_tree(true);
        let snap = t.publish_snapshot();
        let readers = || [("live", t.reader()), ("snapshot", snap.reader())];
        let rays: Vec<(Point3, Point3)> = (0..24)
            .map(|i| {
                let a = i as f64 * 0.26;
                (
                    Point3::new(0.01, 0.01, 0.01),
                    Point3::new(a.cos(), a.sin(), 0.1),
                )
            })
            .collect();
        let one_by_one: Vec<RayCastResult> = rays
            .iter()
            .map(|&(o, d)| t.cast_ray(o, d, 5.0, true).unwrap())
            .collect();
        for (source, mut reader) in readers() {
            let batch = reader.cast_rays(&rays, 5.0, true).unwrap();
            assert_eq!(batch, one_by_one, "{source}");
        }
        // A degenerate direction at index k returns its error after
        // casting exactly k + 1 rays: no ray after it is cast.
        let bad = (Point3::new(0.5, 0.5, 0.5), Point3::ZERO);
        let err = t.cast_ray(bad.0, bad.1, 5.0, true).unwrap_err();
        for k in [0, 1, 11, rays.len() - 1] {
            let mut with_bad = rays.clone();
            with_bad[k] = bad;
            for (source, mut reader) in readers() {
                let got = reader.cast_rays(&with_bad, 5.0, true);
                assert_eq!(got, Err(err), "{source} k={k}");
                assert_eq!(reader.counters().rays, k as u64 + 1, "{source} k={k}");
            }
        }
    }

    #[test]
    fn cached_sphere_probe_matches_per_probe() {
        let mut t = mapped_tree(true);
        for (center, radius) in [
            (Point3::new(2.0, 0.0, 0.2), 0.3),
            (Point3::new(0.5, 0.5, 0.0), 0.2),
            (Point3::new(-1.4, 1.4, -0.4), 0.5),
        ] {
            let scalar = t.collides_sphere(center, radius).unwrap();
            let cached = t
                .with_reader(|r| r.collides_sphere(center, radius))
                .unwrap();
            assert_eq!(scalar, cached, "sphere at {center} r={radius}");
        }
        assert!(t.query_counters().probes > 0);
    }

    #[test]
    fn take_query_counters_drains() {
        let mut t = mapped_tree(true);
        t.with_reader(|r| r.query_batch(&random_keys(10, 3)));
        let c = t.take_query_counters();
        assert_eq!(c.batch_queries, 10);
        assert_eq!(*t.query_counters(), QueryCounters::default());
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut t = mapped_tree(true);
        assert!(t.with_reader(|r| r.query_batch(&[])).is_empty());
        assert!(t
            .with_reader(|r| r.cast_rays(&[], 5.0, true))
            .unwrap()
            .is_empty());
        assert_eq!(t.query_counters().probes, 0);
    }
}
