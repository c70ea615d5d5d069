//! The persistent scan-integration pipeline: construct once, reuse for
//! every scan.
//!
//! Each shard owns a contiguous slice of the scan's rays and runs a
//! private [`ScanIntegrator`] over it, so concatenating shard outputs
//! reproduces the sequential emission order exactly — the software
//! mirror of the OMU paper's PE × bank parallelism. `ScanPipeline` owns
//! all per-shard state across calls — persistent shard integrators and
//! reusable per-shard update buffers — and integrates straight from a
//! borrowed `(origin, &[Point3])`, so a steady-state scan performs
//! **zero per-call point-cloud copies** and no steady-state allocation.
//! This is the front end the octree's fanned-out insertion path and the
//! subtree-sharded batch apply are fed from.
//!
//! The build environment vendors no `rayon`, so the fan-out rides the
//! workspace's persistent [`WorkerPool`] (uniform rays make static
//! chunking a good fit): lane *i* is queued on worker *i*, the pool's
//! caller-help scope drains inline on a 1-CPU host, and a single-shard
//! pipeline degenerates to an inline call with no dispatch at all. The
//! pool is created lazily on first fan-out, or injected with
//! [`ScanPipeline::set_pool`] so the octree's read/write paths and the
//! front end share one set of warmed-up workers.

use std::sync::Arc;

use omu_geometry::{KeyConverter, KeyError, Point3, VoxelKey};
use omu_pool::WorkerPool;
use rustc_hash::FxHashSet;

use crate::integrate::{IntegrationMode, IntegrationStats, ScanIntegrator, VoxelUpdate};
use crate::packet::{FrontEnd, PacketStats};

/// Minimum number of scan points before [`ScanPipeline::integrate_into`]
/// fans out to pool workers: below this, task dispatch and the per-shard
/// merge cost more than the ray-casting work and the whole scan runs
/// inline on one worker (mirroring the sharded batch apply's
/// `PARALLEL_APPLY_MIN_KEYS` amortization in `omu-octree`).
pub const PARALLEL_MIN_POINTS: usize = 1024;

/// A persistent, shard-parallel scan integrator (see the module docs).
///
/// # Examples
///
/// ```
/// use omu_geometry::{KeyConverter, Point3};
/// use omu_raycast::{IntegrationMode, ScanPipeline};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let conv = KeyConverter::new(0.1)?;
/// let mut pipeline = ScanPipeline::new(conv, Some(5.0), IntegrationMode::Raywise, 4);
/// let points = [Point3::new(1.0, 0.0, 0.0), Point3::new(0.0, 1.0, 0.0)];
/// let mut updates = Vec::new();
/// let stats = pipeline.integrate_into(Point3::ZERO, &points, &mut updates)?;
/// assert_eq!(stats.rays, 2);
/// assert_eq!(updates.len() as u64, stats.total_updates());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScanPipeline {
    conv: KeyConverter,
    max_range: Option<f64>,
    mode: IntegrationMode,
    front_end: FrontEnd,
    /// One persistent sequential integrator per shard (each runs Raywise
    /// internally; dedup happens scan-globally after the merge).
    workers: Vec<ScanIntegrator>,
    /// Reusable per-shard update buffers.
    buffers: Vec<Vec<VoxelUpdate>>,
    /// Persistent dedup sets for [`IntegrationMode::DedupPerScan`].
    free_set: FxHashSet<VoxelKey>,
    occupied_set: FxHashSet<VoxelKey>,
    /// Worker pool for the fan-out; `None` until the first multi-lane
    /// scan (or until a shared pool is injected via [`Self::set_pool`]).
    pool: Option<Arc<WorkerPool>>,
}

impl ScanPipeline {
    /// Creates a pipeline fanning ray casting out over `shards` threads
    /// (`0` = one shard per available CPU).
    pub fn new(
        conv: KeyConverter,
        max_range: Option<f64>,
        mode: IntegrationMode,
        shards: usize,
    ) -> Self {
        Self::with_front_end(conv, max_range, mode, shards, FrontEnd::default())
    }

    /// [`Self::new`] with an explicit DDA front end for the shard workers
    /// (see [`FrontEnd`]).
    pub fn with_front_end(
        conv: KeyConverter,
        max_range: Option<f64>,
        mode: IntegrationMode,
        shards: usize,
        front_end: FrontEnd,
    ) -> Self {
        let shards = Self::resolve_shards(shards);
        ScanPipeline {
            conv,
            max_range,
            mode,
            front_end,
            workers: (0..shards)
                .map(|_| {
                    ScanIntegrator::with_front_end(
                        conv,
                        max_range,
                        IntegrationMode::Raywise,
                        front_end,
                    )
                })
                .collect(),
            buffers: (0..shards).map(|_| Vec::new()).collect(),
            free_set: FxHashSet::default(),
            occupied_set: FxHashSet::default(),
            pool: None,
        }
    }

    /// Installs a shared worker pool for the fan-out (e.g. the octree's
    /// pool, so ray casting and batch apply reuse the same workers).
    /// Without this, the pipeline creates its own pool on first use.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// The worker pool backing the fan-out, if one exists yet.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Resolves a requested shard count: `0` means one shard per
    /// available CPU.
    pub fn resolve_shards(requested: usize) -> usize {
        if requested == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            requested
        }
    }

    /// The key converter in use.
    pub fn converter(&self) -> &KeyConverter {
        &self.conv
    }

    /// The integration mode in use.
    pub fn mode(&self) -> IntegrationMode {
        self.mode
    }

    /// The configured maximum sensor range.
    pub fn max_range(&self) -> Option<f64> {
        self.max_range
    }

    /// The DDA front end the shard workers run.
    pub fn front_end(&self) -> FrontEnd {
        self.front_end
    }

    /// Cumulative packet front-end counters summed over all shard workers
    /// (all zero while running [`FrontEnd::Scalar`]).
    pub fn packet_stats(&self) -> PacketStats {
        let mut stats = PacketStats::default();
        for w in &self.workers {
            stats.merge(&w.packet_stats());
        }
        stats
    }

    /// Number of shards rays are split into.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Whether a scan of `n_points` points over `shards` (resolved) shards
    /// runs inline on one worker instead of fanning out to the pool (see
    /// [`PARALLEL_MIN_POINTS`]).
    pub fn would_run_inline(shards: usize, n_points: usize) -> bool {
        shards == 1 || n_points < PARALLEL_MIN_POINTS
    }

    /// Integrates one scan directly from a borrowed origin and point
    /// slice, appending every voxel update to `out`.
    ///
    /// In [`IntegrationMode::Raywise`] the merged stream is byte-for-byte
    /// the sequential [`ScanIntegrator`] stream (shards are contiguous ray
    /// ranges, joined in order). In [`IntegrationMode::DedupPerScan`] the
    /// per-shard key sets are unioned before emission, so dedup stays
    /// *global* to the scan exactly like the sequential path.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when `origin` cannot be addressed, like the
    /// sequential integrator.
    pub fn integrate_into(
        &mut self,
        origin: Point3,
        points: &[Point3],
        out: &mut Vec<VoxelUpdate>,
    ) -> Result<IntegrationStats, KeyError> {
        self.conv.coord_to_key(origin)?;
        if points.is_empty() {
            return Ok(IntegrationStats::default());
        }

        // Below the dispatch-amortization threshold the whole scan runs
        // on one worker; in raywise mode it writes straight into `out`,
        // skipping the per-shard buffer and its copy entirely.
        let inline = Self::would_run_inline(self.workers.len(), points.len());
        if inline && self.mode == IntegrationMode::Raywise {
            return self.workers[0].integrate_points_into(origin, points, out);
        }

        let shards = if inline { 1 } else { self.workers.len() };
        let chunk = points.len().div_ceil(shards);
        let lanes: Vec<(&mut ScanIntegrator, &mut Vec<VoxelUpdate>, &[Point3])> = self
            .workers
            .iter_mut()
            .zip(self.buffers.iter_mut())
            .zip(points.chunks(chunk))
            .map(|((w, b), p)| (w, b, p))
            .collect();

        let shard_stats: Vec<IntegrationStats> = if lanes.len() == 1 {
            // Single shard: run inline, no pool dispatch.
            lanes
                .into_iter()
                .map(|(worker, buffer, slice)| {
                    buffer.clear();
                    worker.integrate_points_into(origin, slice, buffer)
                })
                .collect::<Result<_, _>>()?
        } else {
            let nlanes = lanes.len();
            let pool = Arc::clone(
                self.pool
                    .get_or_insert_with(|| Arc::new(WorkerPool::new(nlanes))),
            );
            type LaneSlot = Option<Result<IntegrationStats, KeyError>>;
            let mut slots: Vec<LaneSlot> = (0..nlanes).map(|_| None).collect();
            // Lane i always lands on worker i, keeping each shard
            // integrator's scratch state warm on one thread. A task
            // panic resumes on this thread.
            pool.scope(|s| {
                for (i, ((worker, buffer, slice), slot)) in
                    lanes.into_iter().zip(slots.iter_mut()).enumerate()
                {
                    s.spawn_on(i, move || {
                        buffer.clear();
                        *slot = Some(worker.integrate_points_into(origin, slice, buffer));
                    });
                }
            });
            slots
                .into_iter()
                // omu-lint: allow(no-panic) — invariant: `scope` returns
                // only after every spawned task ran, and each task fills
                // its slot.
                .map(|s| s.expect("pipeline shard task completed"))
                .collect::<Result<_, _>>()?
        };

        let mut stats = IntegrationStats::default();
        match self.mode {
            IntegrationMode::Raywise => {
                for (buffer, shard) in self.buffers.iter().zip(&shard_stats) {
                    out.extend_from_slice(buffer);
                    stats.merge(shard);
                }
            }
            IntegrationMode::DedupPerScan => {
                self.free_set.clear();
                self.occupied_set.clear();
                for (buffer, shard) in self.buffers.iter().zip(&shard_stats) {
                    stats.merge(shard);
                    for u in buffer {
                        if u.hit {
                            self.occupied_set.insert(u.key);
                        } else {
                            self.free_set.insert(u.key);
                        }
                    }
                }
                // Re-express the raywise counts as post-dedup counts, with
                // occupied winning over free (OctoMap semantics).
                stats.free_updates = 0;
                stats.occupied_updates = 0;
                for &k in &self.free_set {
                    if !self.occupied_set.contains(&k) {
                        out.push(VoxelUpdate { key: k, hit: false });
                        stats.free_updates += 1;
                    }
                }
                for &k in &self.occupied_set {
                    out.push(VoxelUpdate { key: k, hit: true });
                    stats.occupied_updates += 1;
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_points(n: usize) -> Vec<Point3> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.13;
                Point3::new(3.0 * a.cos(), 3.0 * a.sin(), ((i % 5) as f64 - 2.0) * 0.3)
            })
            .collect()
    }

    #[test]
    fn pipeline_matches_sequential_stream_exactly() {
        let points = ring_points(64);
        let origin = Point3::new(0.01, 0.01, 0.01);
        let conv = KeyConverter::new(0.1).unwrap();

        let mut sequential = ScanIntegrator::new(conv, Some(5.0), IntegrationMode::Raywise);
        let mut seq_updates = Vec::new();
        let seq_stats = sequential
            .integrate_points_into(origin, &points, &mut seq_updates)
            .unwrap();

        for shards in [1, 2, 3, 8] {
            let mut pipeline = ScanPipeline::new(conv, Some(5.0), IntegrationMode::Raywise, shards);
            let mut updates = Vec::new();
            let stats = pipeline
                .integrate_into(origin, &points, &mut updates)
                .unwrap();
            assert_eq!(updates, seq_updates, "shards={shards}");
            assert_eq!(stats, seq_stats, "shards={shards}");
        }
    }

    #[test]
    fn pipeline_is_reusable_across_scans() {
        let conv = KeyConverter::new(0.1).unwrap();
        let mut pipeline = ScanPipeline::new(conv, None, IntegrationMode::Raywise, 3);
        let origin = Point3::ZERO;
        let mut reference = ScanIntegrator::new(conv, None, IntegrationMode::Raywise);
        for n in [10, 40, 7] {
            let points = ring_points(n);
            let mut updates = Vec::new();
            let stats = pipeline
                .integrate_into(origin, &points, &mut updates)
                .unwrap();
            let mut expected = Vec::new();
            let expected_stats = reference
                .integrate_points_into(origin, &points, &mut expected)
                .unwrap();
            assert_eq!(updates, expected, "scan of {n} points");
            assert_eq!(stats, expected_stats);
        }
    }

    #[test]
    fn dedup_pipeline_matches_sequential_sets() {
        let origin = Point3::new(0.01, 0.01, 0.01);
        let conv = KeyConverter::new(0.1).unwrap();
        let mut sequential = ScanIntegrator::new(conv, None, IntegrationMode::DedupPerScan);
        let mut pipeline = ScanPipeline::new(conv, None, IntegrationMode::DedupPerScan, 4);

        // One scan on a single lane, one above PARALLEL_MIN_POINTS whose
        // four lanes' key sets must union back into the sequential sets.
        for n in [48, PARALLEL_MIN_POINTS + 1000] {
            let points = ring_points(n);
            let mut seq_updates = Vec::new();
            let seq_stats = sequential
                .integrate_points_into(origin, &points, &mut seq_updates)
                .unwrap();
            let mut updates = Vec::new();
            let stats = pipeline
                .integrate_into(origin, &points, &mut updates)
                .unwrap();

            // Emission order is set-dependent; compare as sorted multisets.
            let canon = |mut v: Vec<VoxelUpdate>| {
                v.sort_unstable_by_key(|u| (u.key, u.hit));
                v
            };
            assert_eq!(canon(updates), canon(seq_updates), "n={n}");
            assert_eq!(stats.free_updates, seq_stats.free_updates);
            assert_eq!(stats.occupied_updates, seq_stats.occupied_updates);
            assert_eq!(stats.rays, seq_stats.rays);
            assert_eq!(stats.dda_steps, seq_stats.dda_steps);
        }
    }

    #[test]
    fn empty_scan_is_a_noop() {
        let conv = KeyConverter::new(0.1).unwrap();
        let mut pipeline = ScanPipeline::new(conv, None, IntegrationMode::Raywise, 4);
        let mut updates = Vec::new();
        let stats = pipeline
            .integrate_into(Point3::ZERO, &[], &mut updates)
            .unwrap();
        assert_eq!(stats, IntegrationStats::default());
        assert!(updates.is_empty());
    }

    #[test]
    fn bad_origin_is_an_error() {
        let conv = KeyConverter::new(0.1).unwrap();
        let far = conv.map_half_extent() + 10.0;
        let mut pipeline = ScanPipeline::new(conv, None, IntegrationMode::Raywise, 2);
        assert!(pipeline
            .integrate_into(Point3::new(far, 0.0, 0.0), &[Point3::ZERO], &mut Vec::new())
            .is_err());
    }

    #[test]
    fn zero_shards_resolves_to_cpu_count() {
        let conv = KeyConverter::new(0.1).unwrap();
        let pipeline = ScanPipeline::new(conv, None, IntegrationMode::Raywise, 0);
        assert!(pipeline.shards() >= 1);
    }

    #[test]
    fn small_scans_run_inline_below_the_parallel_threshold() {
        assert!(ScanPipeline::would_run_inline(4, PARALLEL_MIN_POINTS - 1));
        assert!(!ScanPipeline::would_run_inline(4, PARALLEL_MIN_POINTS));
        // A single-shard pipeline never pays the fan-out overhead.
        assert!(ScanPipeline::would_run_inline(1, PARALLEL_MIN_POINTS));
        assert!(ScanPipeline::would_run_inline(1, usize::MAX));
    }

    #[test]
    fn inline_and_fanned_out_paths_agree_across_the_threshold() {
        let conv = KeyConverter::new(0.1).unwrap();
        let origin = Point3::new(0.01, 0.01, 0.01);
        let mut sequential = ScanIntegrator::new(conv, Some(5.0), IntegrationMode::Raywise);
        let mut pipeline = ScanPipeline::new(conv, Some(5.0), IntegrationMode::Raywise, 4);
        // One scan below and one above PARALLEL_MIN_POINTS through the
        // same pipeline: both must match the sequential stream exactly.
        for n in [PARALLEL_MIN_POINTS / 2, PARALLEL_MIN_POINTS + 100] {
            let points = ring_points(n);
            let mut seq_updates = Vec::new();
            let seq_stats = sequential
                .integrate_points_into(origin, &points, &mut seq_updates)
                .unwrap();
            let mut updates = Vec::new();
            let stats = pipeline
                .integrate_into(origin, &points, &mut updates)
                .unwrap();
            assert_eq!(updates, seq_updates, "n={n}");
            assert_eq!(stats, seq_stats, "n={n}");
        }
    }
}
