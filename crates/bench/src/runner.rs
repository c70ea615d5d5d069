//! Dataset execution: software baseline + accelerator model, with
//! extrapolation from scaled runs.
//!
//! Both halves honour the shared `--engine` flag and run through the
//! `omu::map` facade: each is an [`OccupancyMap`] whose backend differs
//! ([`Backend::Software`] vs [`Backend::Accelerator`]) while the engine
//! dispatch happens inside the shared `MapBackend` trait — no per-engine
//! match arms here. The CPU cost models price individual tree operations
//! (calibrated against stock scalar OctoMap), so under the batched
//! engines the modeled CPU time reflects how much tree work batching
//! *eliminated*; pass `--engine scalar` for the paper's original
//! baseline shape.

use omu_core::{summarize, AccelRunSummary, OmuConfig};
use omu_cpumodel::{frame_equivalent_fps, CpuCostModel, RuntimeBreakdown};
use omu_datasets::{Dataset, DatasetKind};
use omu_map::{Backend, Engine, MapBuilder, MapError};
use omu_octree::{MemoryStats, OpCounters};
use omu_raycast::{IntegrationMode, IntegrationStats};

use crate::args::RunOptions;

/// Default scan-count scales keeping `repro_all` in the minutes range.
/// Override with `--scale` / `--full` / `OMU_SCALE` for full-fidelity
/// runs.
pub fn default_scale(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Fr079Corridor => 0.35,
        DatasetKind::FreiburgCampus => 0.1,
        DatasetKind::NewCollege => 0.02,
    }
}

/// Everything measured for one dataset: the instrumented software
/// baseline (feeding the CPU cost models) and the accelerator run.
#[derive(Debug, Clone)]
pub struct DatasetRun {
    /// Which dataset.
    pub kind: DatasetKind,
    /// Scans actually executed.
    pub scans_run: usize,
    /// Extrapolation factor to the full dataset (full scans / run scans).
    pub extrapolation: f64,
    /// Points integrated in the run.
    pub points: u64,
    /// Integration statistics (rays, DDA steps, voxel updates).
    pub integration: IntegrationStats,
    /// Baseline octree operation counters (early-abort off, raywise).
    pub counters: OpCounters,
    /// Baseline tree node count at end of run.
    pub tree_nodes: usize,
    /// Baseline tree memory footprint.
    pub tree_mem: MemoryStats,
    /// Measured wall-clock seconds of the baseline software run on the
    /// host — the empirical anchor printed beside the modeled per-op
    /// extrapolations, so calibration drift between the op-count model
    /// and real batched execution is visible in every report.
    pub baseline_wall_s: f64,
    /// Accelerator run summary.
    pub accel: AccelRunSummary,
    /// Rows per bank the accelerator ended up needing (4096 = paper
    /// geometry; larger values indicate a capacity retry).
    pub accel_rows_per_bank: usize,
}

impl DatasetRun {
    /// Modeled i9-9940X runtime breakdown for the executed scans.
    pub fn i9(&self) -> RuntimeBreakdown {
        CpuCostModel::i9_9940x().runtime(&self.counters)
    }

    /// Modeled Cortex-A57 runtime breakdown for the executed scans.
    pub fn a57(&self) -> RuntimeBreakdown {
        CpuCostModel::cortex_a57().runtime(&self.counters)
    }

    /// Full-dataset i9 latency estimate in seconds.
    pub fn i9_latency_full(&self) -> f64 {
        self.i9().total_s() * self.extrapolation
    }

    /// Full-dataset A57 latency estimate in seconds.
    pub fn a57_latency_full(&self) -> f64 {
        self.a57().total_s() * self.extrapolation
    }

    /// Full-dataset OMU latency estimate in seconds.
    pub fn omu_latency_full(&self) -> f64 {
        self.accel.latency_s * self.extrapolation
    }

    /// Full-dataset point count estimate.
    pub fn points_full(&self) -> f64 {
        self.points as f64 * self.extrapolation
    }

    /// Full-dataset voxel-update estimate.
    pub fn updates_full(&self) -> f64 {
        self.integration.total_updates() as f64 * self.extrapolation
    }

    /// Frame-equivalent FPS on the i9 (updates-based; see
    /// `omu_cpumodel::UPDATES_PER_FRAME`).
    pub fn i9_fps(&self) -> f64 {
        frame_equivalent_fps(self.integration.total_updates(), self.i9().total_s())
    }

    /// Frame-equivalent FPS on the A57.
    pub fn a57_fps(&self) -> f64 {
        frame_equivalent_fps(self.integration.total_updates(), self.a57().total_s())
    }

    /// Frame-equivalent FPS on the OMU accelerator.
    pub fn omu_fps(&self) -> f64 {
        frame_equivalent_fps(self.integration.total_updates(), self.accel.latency_s)
    }

    /// Full-dataset A57 energy estimate in joules.
    pub fn a57_energy_full(&self) -> f64 {
        CpuCostModel::cortex_a57().energy_j(&self.counters) * self.extrapolation
    }

    /// Full-dataset OMU energy estimate in joules.
    pub fn omu_energy_full(&self) -> f64 {
        self.accel.energy_j * self.extrapolation
    }
}

/// Runs one dataset through baseline and accelerator with the default
/// engine ([`Engine::default`]).
///
/// # Panics
///
/// Same contract as [`run_dataset_with_engine`].
pub fn run_dataset(kind: DatasetKind, scale: f64) -> DatasetRun {
    run_dataset_with_engine(kind, scale, Engine::default())
}

/// Runs one dataset through baseline and accelerator, both driven by
/// `engine`.
///
/// The accelerator starts at the paper's 4096 rows/bank and retries with
/// larger memories when a workload (at fine resolutions or large scales)
/// overflows — the retry is reported in
/// [`DatasetRun::accel_rows_per_bank`].
///
/// # Panics
///
/// Panics if the dataset cannot be integrated at all (e.g. scan origins
/// outside the map, which the generators never produce).
pub fn run_dataset_with_engine(kind: DatasetKind, scale: f64, engine: Engine) -> DatasetRun {
    let dataset = kind.build_scaled(scale);
    let spec = *dataset.spec();
    let full_scans = kind.spec().scans;

    // Baseline and accelerator runs are independent; dispatch both on the
    // worker pool (the workspace confines raw `thread::scope` to
    // `crates/pool`). A task panic is resumed on this thread by `scope`,
    // preserving the documented panic contract.
    let pool = omu_pool::WorkerPool::new(2);
    let mut base_slot = None;
    let mut acc_slot = None;
    pool.scope(|s| {
        let dataset_ref = &dataset;
        s.spawn_on(0, || base_slot = Some(run_baseline(dataset_ref, engine)));
        s.spawn_on(1, || acc_slot = Some(run_accel(dataset_ref, engine)));
    });
    let (baseline, accel) = (
        base_slot.expect("baseline task completed"),
        acc_slot.expect("accelerator task completed"),
    );
    let (integration, counters, tree_nodes, tree_mem, points, baseline_wall_s) = baseline;
    let (accel_summary, rows_per_bank) = accel;

    DatasetRun {
        kind,
        scans_run: spec.scans,
        extrapolation: full_scans as f64 / spec.scans as f64,
        points,
        integration,
        counters,
        tree_nodes,
        tree_mem,
        baseline_wall_s,
        accel: accel_summary,
        accel_rows_per_bank: rows_per_bank,
    }
}

fn run_baseline(
    dataset: &Dataset,
    engine: Engine,
) -> (IntegrationStats, OpCounters, usize, MemoryStats, u64, f64) {
    let spec = dataset.spec();
    // One facade map, engine dispatch inside `MapBackend`. Stock OctoMap
    // behavior is preserved on the scalar engine: the early-abort
    // pre-search skips updates to already-saturated voxels (the
    // accelerator, in contrast, executes every update in full — its
    // per-update cost is constant anyway). The batched paths skip the
    // pre-search by construction.
    let mut map = MapBuilder::new(spec.resolution)
        .engine(engine)
        .integration_mode(IntegrationMode::Raywise)
        .max_range(Some(spec.max_range))
        .build()
        .expect("valid resolution");

    let mut totals = IntegrationStats::default();
    let mut points = 0u64;
    let wall_start = std::time::Instant::now();
    for scan in dataset.scans() {
        points += scan.len() as u64;
        let stats = map
            .insert(&scan)
            .expect("generated scans stay inside the map");
        totals.merge(&stats);
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    let counters = map.counters().expect("software backend tracks counters");
    let tree = map.tree().expect("baseline runs the software backend");
    (
        totals,
        counters,
        tree.num_nodes(),
        tree.memory_stats(),
        points,
        wall_s,
    )
}

fn run_accel(dataset: &Dataset, engine: Engine) -> (AccelRunSummary, usize) {
    let spec = dataset.spec();
    // The paper's geometry first; grow on capacity overflow.
    'rows: for rows_per_bank in [4096usize, 16384, 65536] {
        let config = OmuConfig::builder()
            .rows_per_bank(rows_per_bank)
            .build()
            .expect("valid config");
        let mut map = MapBuilder::new(spec.resolution)
            .engine(engine)
            .integration_mode(IntegrationMode::Raywise)
            .max_range(Some(spec.max_range))
            .backend(Backend::Accelerator(config))
            .build()
            .expect("valid config");
        for scan in dataset.scans() {
            match map.insert(&scan) {
                Ok(_) => {}
                Err(MapError::Capacity(_)) => {
                    eprintln!(
                        "  [{}] T-Mem overflow at {} rows/bank, retrying larger",
                        dataset.spec().kind.name(),
                        rows_per_bank
                    );
                    continue 'rows;
                }
                Err(e) => panic!("accelerator run failed: {e}"),
            }
        }
        let omu = map.accelerator().expect("accelerator backend");
        return (summarize(omu), rows_per_bank);
    }
    panic!("accelerator out of capacity even at 65536 rows/bank");
}

/// Runs all three datasets (in parallel threads), honouring the scale
/// and engine overrides.
pub fn run_all(opts: RunOptions) -> Vec<DatasetRun> {
    let pool = omu_pool::WorkerPool::new(DatasetKind::ALL.len());
    let mut slots: Vec<Option<DatasetRun>> = DatasetKind::ALL.iter().map(|_| None).collect();
    pool.scope(|s| {
        for (slot, kind) in slots.iter_mut().zip(DatasetKind::ALL) {
            let scale = opts.scale.unwrap_or_else(|| default_scale(kind));
            s.spawn(move || {
                eprintln!(
                    "running {} at scale {scale} ({} engine) ...",
                    kind.name(),
                    opts.engine
                );
                let run = run_dataset_with_engine(kind, scale, opts.engine);
                eprintln!(
                    "done {}: {} scans, {:.1} M updates measured",
                    kind.name(),
                    run.scans_run,
                    run.integration.total_updates() as f64 / 1e6
                );
                *slot = Some(run);
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("dataset task completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_corridor_scalar_run_matches_paper_shape() {
        // The paper's comparisons are against stock scalar OctoMap, so the
        // paper-shaped orderings are asserted on the scalar engine.
        let run = run_dataset_with_engine(DatasetKind::Fr079Corridor, 0.01, Engine::Scalar); // 1 scan
        assert_eq!(run.scans_run, 1);
        assert!(run.extrapolation > 60.0);
        assert!(run.points > 50_000, "one dense scan");
        assert!(
            run.integration.total_updates() > run.points,
            "free cells dominate"
        );
        assert!(run.tree_nodes > 1000);
        // The CPU models see the same workload the accelerator ran.
        assert_eq!(run.accel.voxel_updates, run.integration.total_updates());
        assert!(run.i9().total_s() > 0.0);
        assert!(run.a57().total_s() > run.i9().total_s());
        assert!(run.accel.latency_s > 0.0);
        // Accelerator beats both CPUs.
        assert!(run.accel.latency_s < run.i9().total_s());
        // FPS ordering matches the paper.
        assert!(run.omu_fps() > run.i9_fps());
        assert!(run.i9_fps() > run.a57_fps());
    }

    #[test]
    fn tiny_corridor_batched_run_is_consistent_and_cheaper() {
        let scalar = run_dataset_with_engine(DatasetKind::Fr079Corridor, 0.01, Engine::Scalar);
        let batched = run_dataset(DatasetKind::Fr079Corridor, 0.01); // default engine
        assert_eq!(batched.scans_run, 1);
        // Same workload shape regardless of engine.
        assert_eq!(
            batched.integration.total_updates(),
            scalar.integration.total_updates()
        );
        assert_eq!(
            batched.accel.voxel_updates,
            batched.integration.total_updates()
        );
        assert_eq!(batched.tree_nodes, scalar.tree_nodes, "bit-identical maps");
        // Batching eliminates tree maintenance: fewer modeled CPU seconds
        // and fewer accelerator cycles (burst discount) than scalar.
        assert!(batched.i9().total_s() < scalar.i9().total_s());
        assert!(batched.accel.latency_s < scalar.accel.latency_s);
        assert!(batched.a57().total_s() > batched.i9().total_s());
        assert!(batched.omu_fps() > batched.a57_fps());
    }

    #[test]
    fn default_scales_are_sane() {
        for kind in DatasetKind::ALL {
            let s = default_scale(kind);
            assert!(s > 0.0 && s <= 1.0);
        }
    }
}
