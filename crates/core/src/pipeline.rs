//! End-to-end mapping runs: stream scans through an accelerator and
//! summarize the paper's evaluation metrics.

use omu_geometry::Scan;
use serde::{Deserialize, Serialize};

use crate::accel::OmuAccelerator;
use crate::config::OmuConfig;
use crate::error::AccelError;
use crate::query_unit::QueryUnitStats;

/// Voxel updates per frame-equivalent for the paper's FPS convention
/// (a 320 × 240 sensor image at a nominal 15 updates per pixel; see
/// Section III-B and `omu_cpumodel::UPDATES_PER_FRAME`, kept numerically
/// identical here).
const UPDATES_PER_FRAME: f64 = 320.0 * 240.0 * 15.0;

/// Evaluation summary of one accelerator mapping run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelRunSummary {
    /// Scans integrated.
    pub scans: u64,
    /// Points consumed.
    pub points: u64,
    /// Voxel updates executed.
    pub voxel_updates: u64,
    /// End-to-end latency in seconds (Table III row "OMU accelerator").
    pub latency_s: f64,
    /// Frame-equivalent throughput (Table IV).
    pub fps: f64,
    /// Modeled energy in joules (Table V).
    pub energy_j: f64,
    /// Average power in milliwatts (Section VI-C).
    pub power_mw: f64,
    /// Share of power consumed by SRAM (paper: 91 %).
    pub sram_power_share: f64,
    /// Fig. 10 accelerator-side shares
    /// `[update_leaf, update_parents, prune_expand]`.
    pub breakdown_shares: [f64; 3],
    /// Mean T-Mem row utilization at end of run.
    pub sram_utilization: f64,
    /// Busiest-PE / mean-PE update ratio (1.0 = balanced).
    pub load_imbalance: f64,
    /// Cycles voxels waited in the shared queue for a full PE window,
    /// summed over voxels (not stalls: the front end never stalls).
    pub queue_wait_cycles: u64,
    /// Voxel query unit counters (queries served, cycles, cached-descent
    /// reuse) — zero when the run never queried the map.
    pub query: QueryUnitStats,
}

/// Which voxel-update path a mapping run drives.
///
/// All engines produce bit-identical maps; they differ in how tree
/// maintenance is scheduled. [`UpdateEngine::MortonBatched`] is the
/// paper-shaped path: one sorted batch per scan, each PE's work arriving
/// as a contiguous run. [`UpdateEngine::ShardedParallel`] additionally
/// groups the batch by PE, so a PE's whole scan workload is one run —
/// the branch-shard → PE mapping of the software
/// `apply_update_batch_parallel` engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum UpdateEngine {
    /// One full descent + parent-refresh pass per voxel update
    /// (OctoMap's `updateNode` loop; the paper's CPU baseline shape).
    #[default]
    Scalar,
    /// Per-scan Morton-sorted batches
    /// ([`OmuAccelerator::integrate_scan_batched`]).
    MortonBatched,
    /// Per-scan batches grouped by PE then Morton-sorted, one contiguous
    /// run per PE ([`OmuAccelerator::integrate_scan_sharded`]).
    ShardedParallel,
}

/// Builds an accelerator from `config`, integrates every scan, and
/// summarizes the run.
///
/// # Errors
///
/// Returns the first [`AccelError`] encountered (bad origin or SRAM
/// capacity exhaustion).
///
/// # Examples
///
/// ```
/// use omu_core::{run_accelerator, OmuConfig};
/// use omu_geometry::{Point3, PointCloud, Scan};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scans = vec![Scan::new(
///     Point3::ZERO,
///     [Point3::new(1.0, 0.0, 0.0)].into_iter().collect::<PointCloud>(),
/// )];
/// let (omu, summary) = run_accelerator(OmuConfig::default(), scans.into_iter())?;
/// assert_eq!(summary.scans, 1);
/// assert!(summary.latency_s > 0.0);
/// assert!(omu.stats().voxel_updates > 0);
/// # Ok(())
/// # }
/// ```
pub fn run_accelerator<I>(
    config: OmuConfig,
    scans: I,
) -> Result<(OmuAccelerator, AccelRunSummary), AccelError>
where
    I: Iterator<Item = Scan>,
{
    run_accelerator_with_engine(config, scans, UpdateEngine::Scalar)
}

/// [`run_accelerator`] with an explicit [`UpdateEngine`] selection.
///
/// # Errors
///
/// Returns the first [`AccelError`] encountered.
pub fn run_accelerator_with_engine<I>(
    config: OmuConfig,
    scans: I,
    engine: UpdateEngine,
) -> Result<(OmuAccelerator, AccelRunSummary), AccelError>
where
    I: Iterator<Item = Scan>,
{
    let mut omu = OmuAccelerator::new(config)?;
    for scan in scans {
        omu.integrate_scan_with(&scan, engine)?;
    }
    let summary = summarize(&omu);
    Ok((omu, summary))
}

/// Summarizes an accelerator's activity so far.
pub fn summarize(omu: &OmuAccelerator) -> AccelRunSummary {
    let stats = omu.stats();
    let latency_s = omu.elapsed_seconds();
    let ledger = omu.energy_ledger();
    let energy_j = ledger.total_joules();
    let power_mw = if latency_s > 0.0 {
        energy_j / latency_s * 1e3
    } else {
        0.0
    };
    AccelRunSummary {
        scans: stats.scans,
        points: stats.points,
        voxel_updates: stats.voxel_updates,
        latency_s,
        fps: if latency_s > 0.0 {
            stats.voxel_updates as f64 / latency_s / UPDATES_PER_FRAME
        } else {
            0.0
        },
        energy_j,
        power_mw,
        sram_power_share: ledger.share_prefix("sram"),
        breakdown_shares: stats.stage_cycles().figure10_shares(),
        sram_utilization: omu.sram_utilization(),
        load_imbalance: stats.load_imbalance(),
        queue_wait_cycles: stats.queue_wait_cycles,
        query: omu.query_unit_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omu_geometry::{Point3, PointCloud, VoxelKey};

    fn ring_scans(n: usize) -> Vec<Scan> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.17;
                Scan::new(
                    Point3::new(0.01, 0.01, 0.3),
                    (0..32)
                        .map(|j| {
                            let b = a + j as f64 * 0.196;
                            Point3::new(5.0 * b.cos(), 5.0 * b.sin(), 0.4)
                        })
                        .collect::<PointCloud>(),
                )
            })
            .collect()
    }

    #[test]
    fn summary_fields_are_consistent() {
        let (omu, s) = run_accelerator(OmuConfig::default(), ring_scans(10).into_iter()).unwrap();
        assert_eq!(s.scans, 10);
        assert_eq!(s.points, 320);
        assert!(s.voxel_updates > s.points, "free cells dominate updates");
        assert!(s.latency_s > 0.0);
        assert!(s.fps > 0.0);
        assert!(s.energy_j > 0.0);
        assert!(s.power_mw > 0.0);
        assert!(s.sram_power_share > 0.5);
        let share_sum: f64 = s.breakdown_shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        assert!(
            s.breakdown_shares[2] < 0.3,
            "prune/expand stays below ~20-30 % on OMU"
        );
        assert!(s.load_imbalance >= 1.0);
        assert_eq!(omu.stats().scans, 10);
    }

    #[test]
    fn engines_agree_on_map_and_workload() {
        let scans = ring_scans(6);
        let (scalar, s1) =
            run_accelerator(OmuConfig::default(), scans.clone().into_iter()).unwrap();
        let (batched, s2) = run_accelerator_with_engine(
            OmuConfig::default(),
            scans.clone().into_iter(),
            UpdateEngine::MortonBatched,
        )
        .unwrap();
        let (sharded, s3) = run_accelerator_with_engine(
            OmuConfig::default(),
            scans.into_iter(),
            UpdateEngine::ShardedParallel,
        )
        .unwrap();
        assert_eq!(scalar.snapshot(), batched.snapshot());
        assert_eq!(scalar.snapshot(), sharded.snapshot());
        assert_eq!(s1.voxel_updates, s2.voxel_updates);
        assert_eq!(s1.voxel_updates, s3.voxel_updates);
        assert_eq!(s1.scans, s2.scans);
        assert!(batched.morton_runs() > 0);
        // One run per PE per scan at most.
        assert!(sharded.morton_runs() <= batched.morton_runs());
        // The contiguous runs earn the burst discount in wall cycles.
        assert!(s3.latency_s <= s2.latency_s);
        assert!(s2.latency_s < s1.latency_s);
    }

    /// A fixed workload's priced numbers, per engine. The rays fan out over
    /// eight heights, so the voxels around the origin saturate, prune and
    /// re-expand on the next scan: every datapath stage is priced.
    #[test]
    fn priced_numbers_are_pinned() {
        // [wall, queue wait, raycast, query, PE busy, SRAM reads, SRAM writes,
        // then stage cycles: traverse, leaf, create, parent, prune_check,
        // prune_action, expand], and `to_bits` of [latency_s, energy_j,
        // breakdown_shares].
        const SCALAR: ([u64; 14], [u64; 5]) = (
            [
                151717, 151706906, 2898, 8377, 895445, 1274708, 177297, 299840, 18740, 9182,
                421650, 140550, 2204, 3279,
            ],
            [
                4549729393358092448,
                4539917701769601164,
                4600265475804381174,
                4602154297392818481,
                4595043750586723761,
            ],
        );
        const BATCHED: ([u64; 14], [u64; 5]) = (
            [
                115754, 107634622, 2898, 8377, 895170, 1274708, 176802, 299840, 18740, 9182,
                421650, 140550, 2094, 3114,
            ],
            [
                4548169562043492670,
                4539898966356118794,
                4600267501464723657,
                4602156903307120347,
                4595034487437435063,
            ],
        );
        let origin = Point3::new(0.01, 0.01, 0.21);
        let scans: Vec<Scan> = (0..6)
            .map(|i| {
                let points = (0..64).map(|j| {
                    let a = i as f64 * 0.05 + j as f64 * 0.098;
                    let z = ((j % 8) as f64 - 4.0) * 0.4;
                    Point3::new(3.0 * a.cos(), 3.0 * a.sin(), z)
                });
                Scan::new(origin, points.collect::<PointCloud>())
            })
            .collect();
        // 48 keys near the origin, then the first 12 again.
        let keys: Vec<VoxelKey> = (0..60u16)
            .map(|i| VoxelKey::new(32768 + i % 24, 32760 + i % 48 / 3, 32769))
            .collect();
        let rays: Vec<(Point3, Point3)> = (0..8)
            .map(|i| {
                let a = i as f64 * 0.79;
                (origin, Point3::new(a.cos(), a.sin(), 0.1))
            })
            .collect();
        for (engine, pinned) in [
            (UpdateEngine::Scalar, SCALAR),
            (UpdateEngine::MortonBatched, BATCHED),
            (UpdateEngine::ShardedParallel, BATCHED),
        ] {
            let config = OmuConfig::default();
            let (mut omu, _) =
                run_accelerator_with_engine(config, scans.clone().into_iter(), engine).unwrap();
            omu.query_batch(&keys);
            omu.cast_rays(&rays, 4.0, true).unwrap();
            omu.collides_sphere(Point3::new(3.0, 0.0, 0.0), 0.5)
                .unwrap();
            let (st, s) = (omu.stats(), summarize(&omu));
            let (sram, c) = (st.sram_total(), st.stage_cycles());
            let [leaf, parents, prune] = s.breakdown_shares;
            let counts = [
                st.wall_cycles,
                st.queue_wait_cycles,
                st.raycast_cycles,
                st.query_cycles,
                st.pe_busy_total(),
                sram.reads,
                sram.writes,
                c.traverse,
                c.leaf,
                c.create,
                c.parent,
                c.prune_check,
                c.prune_action,
                c.expand,
            ];
            let priced = [s.latency_s, s.energy_j, leaf, parents, prune].map(f64::to_bits);
            assert_eq!((counts, priced), pinned, "{engine:?}");
            let creates: u64 = st.per_pe.iter().map(|p| p.creates).sum();
            assert!(creates > 0 && st.prunes() > 0 && st.expands() > 0);
        }
    }

    #[test]
    fn empty_run_summarizes_to_zeros() {
        let (_, s) = run_accelerator(OmuConfig::default(), std::iter::empty::<Scan>()).unwrap();
        assert_eq!(s.scans, 0);
        assert_eq!(s.fps, 0.0);
        assert_eq!(s.latency_s, 0.0);
    }
}
