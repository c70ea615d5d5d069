//! Seeded input generation, done before any timing starts.
//!
//! The scans themselves are fixed per workload: each comes from the
//! dataset's scene and scanner at a fixed pose with fixed sensor noise.
//! `--seed` moves the whole input by one rigid sub-voxel offset, which
//! changes voxel alignment, Morton order and pruning while every
//! per-scan statistic stays the same. The seed also drives the planner's
//! query positions (see `planner.rs`).

use std::f64::consts::PI;

use omu_datasets::{Dataset, DatasetKind};
use omu_geometry::{Point3, Scan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::Plan;

/// Every scan one service pass sends, in send order.
#[derive(Debug)]
pub struct Inputs {
    /// One warm-up prefix per setup (identical copies).
    pub warmups: Vec<Vec<Scan>>,
    pub main: Vec<Scan>,
    pub tail: Vec<Scan>,
}

/// The rigid offset `seed` selects: each axis uniform in
/// `[0, resolution)`.
pub fn offset(seed: u64, resolution: f64) -> Point3 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FF5_E70F_F5E7);
    Point3::new(
        rng.random::<f64>() * resolution,
        rng.random::<f64>() * resolution,
        rng.random::<f64>() * resolution,
    )
}

/// Generates the inputs of one pass. `copies` is how many warm-up
/// prefixes to make (one per setup).
pub fn generate(plan: &Plan, seed: u64, copies: usize) -> Inputs {
    let dataset = plan.dataset.build();
    let path = ScanPath::new(&dataset, plan.dataset);
    let shift = offset(seed, dataset.spec().resolution);
    let total = plan.warmup + plan.main_scans() + plan.tail;
    let mut scans = (0..total).map(|i| path.scan(&dataset, i, shift));
    let warmup: Vec<Scan> = scans.by_ref().take(plan.warmup).collect();
    let main = scans.by_ref().take(plan.main_scans()).collect();
    let tail = scans.collect();
    let mut warmups = vec![warmup; copies.max(1)];
    warmups.shrink_to_fit();
    Inputs {
        warmups,
        main,
        tail,
    }
}

/// Which pose and noise stream scan `i` uses.
struct ScanPath {
    poses: Vec<(Point3, f64)>,
    /// Corridor: drive down and back (ping-pong). Otherwise loop forward.
    ping_pong: bool,
}

impl ScanPath {
    fn new(dataset: &Dataset, kind: DatasetKind) -> Self {
        let mut poses = dataset.trajectory().poses(dataset.num_scans());
        let ping_pong = kind == DatasetKind::Fr079Corridor;
        if kind == DatasetKind::FreiburgCampus {
            // A closed loop samples its start twice; keep one.
            poses.pop();
        }
        ScanPath { poses, ping_pong }
    }

    fn scan(&self, dataset: &Dataset, i: usize, shift: Point3) -> Scan {
        let n = self.poses.len();
        let (pose, reversed) = if self.ping_pong && n > 1 {
            let k = i % (2 * n - 2);
            if k < n {
                (k, false)
            } else {
                (2 * n - 2 - k, true)
            }
        } else {
            (i % n, false)
        };
        let (origin, yaw) = self.poses[pose];
        let yaw = if reversed { yaw + PI } else { yaw };
        // Fixed noise per scan index, independent of `--seed`.
        let mut rng = StdRng::seed_from_u64(
            dataset.spec().seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let scan = dataset
            .scanner()
            .scan(dataset.scene(), origin, yaw, &mut rng);
        Scan::new(
            scan.origin + shift,
            scan.cloud.into_iter().map(|p| p + shift).collect(),
        )
    }
}
