//! The traced run's replicas: the service's writer path run directly on
//! the map crates over the same scans, timed call by call.
//!
//! - The writer replica is what the service's writer does, on an
//!   `OccupancyMap` with change detection on and the latest snapshot
//!   held: `insert` per scan (the fused path `MapService::ingest` feeds),
//!   then per writer batch `drain_changed_keys` and `publish_snapshot`.
//!   At the crash-prep point it serializes the held snapshot
//!   (`MapSnapshot::to_bytes`) and decodes it (`OccupancyMap::from_bytes`),
//!   which is what a checkpoint and a recovery do.
//! - The split replica runs the paper's two stages separately on an
//!   `OctreeF32`: `ScanIntegrator::integrate_into` (ray casting) and then
//!   `apply_update_batch` (leaf update, parent update, prune).
//!
//! Counts are summed over the main phase only; the warm-up and tail
//! scans are applied too, so the map is in the same state as the
//! service's.

use std::ops::Range;

use omu_geometry::Scan;
use omu_map::{MapSnapshot, OccupancyMap};
use omu_octree::{BatchStats, MemoryStats, OctreeF32, OpCounters, SnapshotStats};
use omu_raycast::{IntegrationMode, IntegrationStats, ScanIntegrator};

use crate::service_pass::Leaves;
use crate::trace::Tracer;
use crate::workload::Plan;

/// Encode/decode repetitions at the checkpoint point.
const CODEC_REPS: u64 = 3;

/// What the writer replica counted.
#[derive(Debug)]
pub struct WriterCounts {
    pub changed_keys: u64,
    pub snapshot_main: (SnapshotStats, SnapshotStats),
    pub ckpt_bytes: usize,
    pub memory: MemoryStats,
    pub leaves: Leaves,
}

/// What the split replica counted over the main phase.
#[derive(Debug, Default)]
pub struct SplitCounts {
    pub integration: IntegrationStats,
    pub batch: BatchStats,
    pub ops: OpCounters,
    pub leaves: Leaves,
}

/// The main phase's writer batches as a range of batch indices, and the
/// scan range each batch covers.
pub fn batch_scans(plan: &Plan) -> (Range<usize>, Vec<Range<usize>>) {
    let batches = plan.batches();
    let mut next = 0;
    let ranges = batches
        .iter()
        .map(|&n| {
            next += n;
            next - n..next
        })
        .collect();
    (plan.warmup..batches.len() - plan.tail, ranges)
}

/// Runs the writer replica over `scans` (warm-up, main, tail in order).
pub fn writer(plan: &Plan, scans: &[Scan], tracer: &Tracer) -> Result<WriterCounts, String> {
    let err = |e: omu_map::MapError| format!("writer replica: {e}");
    let mut map = plan.builder().change_detection(true).build().map_err(err)?;
    // The service publishes once at spawn and keeps the latest snapshot.
    let mut held: MapSnapshot = map.publish_snapshot().map_err(err)?;
    let (main, ranges) = batch_scans(plan);
    let mut changed_keys = 0;
    let mut ckpt_bytes = 0;
    let mut snapshot_main = (SnapshotStats::default(), SnapshotStats::default());
    for (b, range) in ranges.into_iter().enumerate() {
        if b == main.start {
            snapshot_main.0 = map.snapshot_stats().unwrap_or_default();
        }
        for i in range {
            tracer
                .time("octree.insert", i as u64, None, || map.insert(&scans[i]))
                .map_err(err)?;
        }
        let keys = tracer.time("snapshot.change_drain", b as u64, None, || {
            map.drain_changed_keys()
        });
        if main.contains(&b) {
            changed_keys += keys.len() as u64;
        }
        let snap = tracer
            .time("snapshot.publish", b as u64, None, || {
                map.publish_snapshot()
            })
            .map_err(err)?;
        held = snap;
        if b + 1 == main.end {
            snapshot_main.1 = map.snapshot_stats().unwrap_or_default();
            for rep in 0..CODEC_REPS {
                let bytes = tracer.time("serialize.encode", rep, None, || held.to_bytes());
                ckpt_bytes = bytes.len();
                tracer
                    .time("serialize.decode", rep, None, || {
                        OccupancyMap::from_bytes(&bytes)
                    })
                    .map_err(err)?;
            }
        }
    }
    drop(held);
    let memory = map
        .tree()
        .map(OctreeF32::memory_stats)
        .ok_or("writer replica is not a software map")?;
    Ok(WriterCounts {
        changed_keys,
        snapshot_main,
        ckpt_bytes,
        memory,
        leaves: map.snapshot(),
    })
}

/// Runs the split replica over `scans` (warm-up, main, tail in order).
pub fn split(plan: &Plan, scans: &[Scan], tracer: &Tracer) -> Result<SplitCounts, String> {
    let spec = plan.dataset.spec();
    let mut tree = OctreeF32::new(spec.resolution).map_err(|e| format!("split replica: {e}"))?;
    tree.set_change_detection(true);
    let mut integrator = ScanIntegrator::new(
        *tree.converter(),
        Some(spec.max_range),
        IntegrationMode::default(),
    );
    let main = plan.warmup..plan.warmup + plan.main_scans();
    let mut counts = SplitCounts::default();
    let mut updates = Vec::new();
    for (i, scan) in scans.iter().enumerate() {
        if i == main.start {
            counts.ops = *tree.counters();
        }
        updates.clear();
        let integration = tracer
            .time("raycast.integrate", i as u64, None, || {
                integrator.integrate_into(scan, &mut updates)
            })
            .map_err(|e| format!("split replica: {e}"))?;
        let batch = tracer.time("octree.apply", i as u64, None, || {
            tree.apply_update_batch(&updates)
        });
        tree.reset_changed_keys();
        if main.contains(&i) {
            counts.integration.merge(&integration);
            counts.batch.merge(&batch);
        }
        if i + 1 == main.end {
            counts.ops = tree.counters().since(&counts.ops);
        }
    }
    counts.leaves = tree.snapshot();
    Ok(counts)
}
