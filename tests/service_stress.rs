//! Serving-path stress: a writer applies randomized update batches
//! while epoch-pinned snapshots are held, probed, and dropped. Every
//! snapshot must stay bit-identical to a serial replay of the update
//! stream truncated at its epoch, no matter what the live tree does
//! afterwards — and reclamation must never free a row a pinned
//! snapshot can still reach (`debug_validate` is run after every
//! epoch, and retained snapshots are re-verified after each
//! reclamation pass).
//!
//! The update stream is seeded; set `OMU_SERVICE_STRESS_SEED`
//! (decimal or `0x`-prefixed hex) to reproduce a failing run. CI
//! re-runs this file in `--release` with the seed pinned.

use std::collections::VecDeque;
use std::sync::Mutex;

use omu::geometry::{Occupancy, VoxelKey};
use omu::octree::{OctreeF32, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream seed from `OMU_SERVICE_STRESS_SEED` (decimal or `0x` hex),
/// with a fixed default so the suite is deterministic out of the box.
fn stress_seed() -> u64 {
    let Ok(raw) = std::env::var("OMU_SERVICE_STRESS_SEED") else {
        return 0xD1CE;
    };
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    };
    parsed.unwrap_or_else(|| panic!("unparsable OMU_SERVICE_STRESS_SEED: {raw:?}"))
}

/// Randomized hit/miss observations confined to a small cube, so
/// successive epochs keep re-touching the same sibling rows — the
/// worst case for the row-COW machinery (every pinned epoch forces
/// copies) and the best case for catching reclamation bugs.
fn random_batches(seed: u64, batches: usize, updates: usize) -> Vec<Vec<(VoxelKey, bool)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|_| {
            (0..updates)
                .map(|_| {
                    let key = VoxelKey::new(
                        rng.random_range(512..536),
                        rng.random_range(512..536),
                        rng.random_range(512..524),
                    );
                    (key, rng.random_bool(0.6))
                })
                .collect()
        })
        .collect()
}

fn apply(tree: &mut OctreeF32, batch: &[(VoxelKey, bool)]) {
    for &(key, hit) in batch {
        tree.update_key(key, hit);
    }
}

/// Hold every snapshot the writer publishes; each must equal a serial
/// replay of the stream truncated at its epoch, long after the live
/// tree has diverged past it.
#[test]
fn every_snapshot_equals_serial_replay_at_its_epoch() {
    let seed = stress_seed();
    let batches = random_batches(seed, 20, 400);

    let mut tree = OctreeF32::new(0.05).unwrap();
    let mut snaps = Vec::new();
    for batch in &batches {
        apply(&mut tree, batch);
        snaps.push(tree.publish_snapshot());
        tree.debug_validate();
    }

    let stats = tree.snapshot_stats();
    assert_eq!(stats.snapshots_published, batches.len() as u64);
    assert_eq!(stats.pinned_snapshots, batches.len() as u64);
    assert!(
        stats.node_rows_copied + stats.leaf_rows_copied > 0,
        "a re-touching stream under pinned epochs must trigger row COW (seed {seed:#x})"
    );

    let mut replay = OctreeF32::new(0.05).unwrap();
    let mut last_epoch = None;
    for (snap, batch) in snaps.iter().zip(&batches) {
        apply(&mut replay, batch);
        assert_eq!(
            snap.canonical_leaves(),
            replay.snapshot(),
            "snapshot at epoch {} diverged from serial replay (seed {seed:#x})",
            snap.epoch(),
        );
        assert!(
            last_epoch.is_none_or(|last| snap.epoch() > last),
            "epochs must advance monotonically"
        );
        last_epoch = Some(snap.epoch());
    }
}

/// Sliding window of pinned snapshots: older epochs drop while the
/// writer streams on, so retired rows become reclaimable mid-run.
/// Reclamation must never free a row the retained snapshots still
/// read — each survivor is re-verified against the leaves it was
/// captured with after every reclamation pass.
#[test]
fn reclamation_never_frees_rows_reachable_from_pinned_snapshots() {
    const WINDOW: usize = 3;
    let seed = stress_seed();
    let batches = random_batches(seed ^ 0x5EC0, 30, 300);

    let mut tree = OctreeF32::new(0.05).unwrap();
    let mut window = VecDeque::new();
    for batch in &batches {
        apply(&mut tree, batch);
        let snap = tree.publish_snapshot();
        let expected = snap.canonical_leaves();
        window.push_back((snap, expected));
        if window.len() > WINDOW {
            window.pop_front();
        }
        // The dropped epoch's rows are now reclaimable; reclaim eagerly
        // and prove the arena invariants and every retained snapshot
        // survived it.
        tree.sync_cow_state();
        tree.debug_validate();
        for (snap, expected) in &window {
            assert_eq!(
                &snap.canonical_leaves(),
                expected,
                "epoch {} corrupted after reclamation (seed {seed:#x})",
                snap.epoch(),
            );
        }
    }

    assert!(
        tree.snapshot_stats().rows_reclaimed > 0,
        "a {WINDOW}-snapshot window over {} epochs must reclaim retired rows (seed {seed:#x})",
        batches.len(),
    );

    // Dropping the window releases the last pins: after one sync, every
    // retired row must be back on a free list.
    drop(window);
    tree.sync_cow_state();
    tree.debug_validate();
    let stats = tree.snapshot_stats();
    assert_eq!(stats.pinned_snapshots, 0);
    assert_eq!(
        stats.rows_awaiting_reclaim, 0,
        "unpinned retired rows must all be recycled (seed {seed:#x})"
    );
    assert_eq!(stats.rows_retired, stats.rows_reclaimed);
}

/// Readers on the worker pool probe a pinned snapshot *while* the
/// writer keeps mutating the live tree on the caller thread. Every
/// reader must see exactly the published epoch — bit-identical
/// occupancy for every probe — and the snapshot must still verify
/// after the writer has moved on.
#[test]
fn concurrent_readers_see_pinned_epochs_under_live_writes() {
    const READERS: usize = 4;
    const PROBES: usize = 2_000;
    let seed = stress_seed();
    let batches = random_batches(seed ^ 0xC011, 12, 400);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let probes: Vec<VoxelKey> = (0..PROBES)
        .map(|_| {
            VoxelKey::new(
                rng.random_range(510..540),
                rng.random_range(510..540),
                rng.random_range(510..526),
            )
        })
        .collect();

    let pool = WorkerPool::new(READERS);
    let mut tree = OctreeF32::new(0.05).unwrap();
    apply(&mut tree, &batches[0]);
    for next in &batches[1..] {
        let snap = tree.publish_snapshot();
        let expected_leaves = snap.canonical_leaves();
        let expected_occ: Vec<Occupancy> = snap.reader().query_batch(&probes);
        let results = Mutex::new(Vec::new());
        pool.scope(|s| {
            for _ in 0..READERS {
                let snap = snap.clone();
                let probes = &probes;
                let results = &results;
                s.spawn(move || {
                    let occ = snap.reader().query_batch(probes);
                    results.lock().unwrap().push(occ);
                });
            }
            // The writer never waits for the readers: it streams the
            // next batch into the live tree while they probe the
            // pinned epoch.
            apply(&mut tree, next);
        });
        let results = results.into_inner().unwrap();
        assert_eq!(results.len(), READERS);
        for occ in &results {
            assert_eq!(
                occ,
                &expected_occ,
                "a reader diverged from the pinned epoch {} (seed {seed:#x})",
                snap.epoch(),
            );
        }
        // The live tree has moved a full batch past the snapshot; the
        // pinned epoch must be untouched.
        assert_eq!(snap.canonical_leaves(), expected_leaves);
        tree.debug_validate();
    }
}
