//! Crash-safe durability: seeded crash/recovery property tests, the
//! checksum corruption corpus, backpressure, and graceful degradation.
//!
//! The core property: however a durable [`MapService`] dies — torn WAL
//! tail, injected storage faults, a writer killed mid-batch — recovery
//! reconstructs a map **bit-identical to a serial replay of the scan
//! prefix that survived on disk**, and reports exactly what it cut.
//!
//! Runs are seeded; set `OMU_DURABILITY_SEED` (decimal or `0x` hex) to
//! reproduce a failing run. CI re-runs this file in `--release` with
//! the seed pinned, which also raises the seed count.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use omu::geometry::{Point3, PointCloud, Scan};
use omu::map::{
    DurabilityPolicy, DurableDir, FaultKind, FaultPlan, FaultyDir, MapBuilder, MapError,
    MapService, RealDir,
};
use omu::octree::DeserializeError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RES: f64 = 0.1;

/// Base seed from `OMU_DURABILITY_SEED` (decimal or `0x` hex), with a
/// fixed default so the suite is deterministic out of the box.
fn base_seed() -> u64 {
    let Ok(raw) = std::env::var("OMU_DURABILITY_SEED") else {
        return 0xCAFE;
    };
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    };
    parsed.unwrap_or_else(|| panic!("unparsable OMU_DURABILITY_SEED: {raw:?}"))
}

/// Seeds per property: enough in release CI to sweep fault kinds and
/// positions broadly, few enough in debug to keep `cargo test` quick.
fn seed_count() -> u64 {
    if cfg!(debug_assertions) {
        8
    } else {
        120
    }
}

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "omu_durability_{tag}_{seed}_{}",
        std::process::id()
    ))
}

/// A seeded scan stream: small clouds around a common origin so maps
/// stay tiny but successive scans keep flipping shared voxels.
fn scans(seed: u64, count: usize) -> Vec<(Point3, Vec<Point3>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let origin = Point3::new(0.01, 0.01, 0.01);
            let points = (0..24)
                .map(|_| {
                    let a = rng.random_range(0.0..std::f64::consts::TAU);
                    let r = rng.random_range(0.5..2.5);
                    Point3::new(r * a.cos(), r * a.sin(), rng.random_range(0.0..0.4))
                })
                .collect();
            (origin, points)
        })
        .collect()
}

/// The ground truth: a serial map fed the first `k` scans directly.
fn serial_replay(
    stream: &[(Point3, Vec<Point3>)],
    k: usize,
) -> Vec<(omu::geometry::VoxelKey, u8, f32)> {
    let mut map = MapBuilder::new(RES).build().unwrap();
    for (origin, points) in &stream[..k] {
        map.insert_points(*origin, points).unwrap();
    }
    map.snapshot()
}

/// Recovers from `dir` and checks the bit-identical-prefix property:
/// the recovered map must equal a serial replay of exactly the batch
/// prefix the recovery checkpoint covers. Returns that prefix length.
fn assert_recovers_to_prefix(dir: &Path, stream: &[(Point3, Vec<Point3>)]) -> usize {
    let (recovered, report) = MapService::recover(dir.to_path_buf(), MapBuilder::new(RES)).unwrap();
    let covered = recovered
        .health()
        .last_checkpoint_seq
        .expect("recovery always folds the result into a checkpoint") as usize;
    assert!(covered <= stream.len(), "recovered more batches than sent");
    if report.checkpoint_epoch.is_none() {
        assert_eq!(covered, report.replayed_batches as usize);
    }
    let leaves = recovered.snapshot().canonical_leaves();
    assert_eq!(
        leaves,
        serial_replay(stream, covered),
        "recovered map is not a serial replay of the surviving {covered}-batch prefix"
    );
    recovered.shutdown().unwrap();
    covered
}

/// Property, torn-tail variant: run a durable service to clean
/// shutdown, then tear the newest WAL segment at a random byte — the
/// shape a power cut leaves — and recover.
#[test]
fn recovery_matches_serial_replay_after_torn_wal_tail() {
    let base = base_seed();
    for i in 0..seed_count() {
        let seed = base.wrapping_add(i);
        let dir = temp_dir("torn", seed);
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70_52_4E);
        let stream = scans(seed, rng.random_range(4..12));
        let every = rng.random_range(2..5);
        let service = MapService::spawn(
            MapBuilder::new(RES).durability(&dir, DurabilityPolicy::EveryNEpochs(every)),
        )
        .unwrap();
        for (origin, points) in &stream {
            service.ingest_points(*origin, points.clone()).unwrap();
            // One flush per scan pins one batch per scan: batch seq i
            // is exactly scan i, which the prefix check relies on.
            service.flush().unwrap();
        }
        service.shutdown().unwrap();

        // Tear the newest segment at a random offset.
        let mut wals: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("wal-"))
            .collect();
        wals.sort();
        if let Some(newest) = wals.last() {
            let path = dir.join(newest);
            let bytes = std::fs::read(&path).unwrap();
            if !bytes.is_empty() {
                let cut = rng.random_range(0..bytes.len());
                std::fs::write(&path, &bytes[..cut]).unwrap();
            }
        }

        assert_recovers_to_prefix(&dir, &stream);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Property, fault-plan variant: a seeded fault (error, short write, or
/// thread-killing panic) fires at a seeded storage operation while the
/// service runs. Whatever it did, recovery lands on a clean prefix.
#[test]
fn recovery_matches_serial_replay_under_seeded_faults() {
    let base = base_seed();
    for i in 0..seed_count() {
        let seed = base.wrapping_add(i).wrapping_mul(0x9E37_79B9);
        let dir = temp_dir("fault", seed);
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_17);
        let stream = scans(seed, rng.random_range(6..14));
        let plan = FaultPlan::seeded(seed, 24);
        let store: Arc<dyn DurableDir> = Arc::new(FaultyDir::new(
            Arc::new(RealDir::create(&dir).unwrap()),
            plan,
        ));
        let service = MapService::spawn(MapBuilder::new(RES).durability_store(
            store,
            DurabilityPolicy::EveryNEpochs(rng.random_range(2..4)),
        ))
        .unwrap();
        for (origin, points) in &stream {
            // The injected fault may have killed the writer; ingest and
            // flush results stop mattering once it has.
            let _ = service.ingest_points(*origin, points.clone());
            let _ = service.flush();
        }
        // An injected Panic kills the durable thread, never the writer:
        // storage faults degrade serving, they don't stop it.
        assert!(!service.is_shut_down(), "a storage fault killed the writer");
        drop(service);

        assert_recovers_to_prefix(&dir, &stream);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Corruption corpus: every single-bit flip of every byte of a
/// checkpoint blob must be rejected as `ChecksumMismatch` — never
/// decoded into a silently different map, never a panic.
#[test]
fn every_bit_flip_of_a_checkpoint_is_a_checksum_mismatch() {
    let dir = temp_dir("corpus", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let stream = scans(7, 2);
    let service =
        MapService::spawn(MapBuilder::new(RES).durability(&dir, DurabilityPolicy::Manual)).unwrap();
    for (origin, points) in &stream {
        service.ingest_points(*origin, points.clone()).unwrap();
    }
    service.flush().unwrap();
    service.checkpoint().unwrap();
    service.shutdown().unwrap();

    let store = RealDir::create(&dir).unwrap();
    let ckpt = store
        .list()
        .unwrap()
        .into_iter()
        .find(|n| n.starts_with("ckpt-"))
        .expect("manual checkpoint produced a blob");
    let bytes = store.read(&ckpt).unwrap();
    // Sanity: the pristine blob decodes and matches the live map.
    let restored = omu::map::OccupancyMap::from_bytes(&bytes).unwrap();
    assert_eq!(restored.snapshot(), serial_replay(&stream, 2));

    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutant = bytes.clone();
            mutant[pos] ^= 1 << bit;
            match omu::map::OccupancyMap::from_bytes(&mutant) {
                Err(MapError::Decode(DeserializeError::ChecksumMismatch)) => {}
                other => panic!(
                    "flip of bit {bit} at byte {pos}/{} was not a checksum mismatch: {:?}",
                    bytes.len(),
                    other.map(|_| "decoded fine")
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bounded ingest queue pushes back with a typed error instead of
/// blocking or dropping silently, and drains back to healthy.
#[test]
fn bounded_queue_reports_typed_backpressure() {
    let service = MapService::spawn(MapBuilder::new(RES).queue_capacity(2)).unwrap();
    let release = service.debug_stall_writer().unwrap();
    let burst = scans(3, 1).remove(0);
    // The writer is parked; the queue holds exactly `capacity` scans.
    let mut rejected = 0;
    for _ in 0..8 {
        match service.ingest(Scan::new(
            burst.0,
            burst.1.iter().copied().collect::<PointCloud>(),
        )) {
            Ok(()) => {}
            Err(MapError::Backpressure { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(other) => panic!("expected backpressure, got {other:?}"),
        }
    }
    assert!(rejected >= 6, "queue never filled: {rejected}/8 rejected");
    drop(release); // un-park the writer
    service.flush().unwrap();
    // Drained: ingestion works again.
    service.ingest_points(burst.0, burst.1.clone()).unwrap();
    let snap = service.flush().unwrap();
    assert!(!snap.is_empty());
    service.shutdown().unwrap();
}

/// A failing checkpoint degrades the service — typed error on the
/// explicit call, health flag set — while serving and ingestion keep
/// working, and a later checkpoint heals it.
#[test]
fn failed_checkpoint_degrades_to_serving_and_heals() {
    let dir = temp_dir("degrade", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let real: Arc<dyn DurableDir> = Arc::new(RealDir::create(&dir).unwrap());
    // Ops: append(0) + sync(1) for the first batch, write_atomic(2) for
    // the first checkpoint — which is the one that fails.
    let faulty: Arc<dyn DurableDir> = Arc::new(FaultyDir::new(
        Arc::clone(&real),
        FaultPlan::new().fail_at(2, FaultKind::Error),
    ));
    let service =
        MapService::spawn(MapBuilder::new(RES).durability_store(faulty, DurabilityPolicy::Manual))
            .unwrap();
    let stream = scans(11, 3);
    service
        .ingest_points(stream[0].0, stream[0].1.clone())
        .unwrap();
    service.flush().unwrap();
    let e = service.checkpoint().unwrap_err();
    assert!(matches!(e, MapError::Io(_)), "expected Io, got {e:?}");
    let health = service.health();
    assert!(!health.is_healthy());
    assert!(health.checkpoint_failed.is_some());
    assert_eq!(health.last_checkpoint_seq, None);

    // Degraded, not dead: serving and ingestion continue.
    service
        .ingest_points(stream[1].0, stream[1].1.clone())
        .unwrap();
    let snap = service.flush().unwrap();
    assert_eq!(snap.canonical_leaves(), serial_replay(&stream, 2));

    // The next checkpoint heals the health flag.
    service.checkpoint().unwrap();
    let health = service.health();
    assert!(health.is_healthy(), "still degraded: {health:?}");
    assert_eq!(health.last_checkpoint_seq, Some(2));
    service.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recovery report accounts for exactly what was restored: the
/// checkpoint it started from, the WAL batches replayed on top, and
/// whether a tail was cut.
#[test]
fn recovery_report_accounts_for_checkpoint_and_replay() {
    let dir = temp_dir("report", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let stream = scans(42, 5);
    let service =
        MapService::spawn(MapBuilder::new(RES).durability(&dir, DurabilityPolicy::Manual)).unwrap();
    for (origin, points) in &stream[..3] {
        service.ingest_points(*origin, points.clone()).unwrap();
        service.flush().unwrap();
    }
    service.checkpoint().unwrap();
    assert_eq!(service.health().last_checkpoint_seq, Some(3));
    for (origin, points) in &stream[3..] {
        service.ingest_points(*origin, points.clone()).unwrap();
        service.flush().unwrap();
    }
    service.shutdown().unwrap();

    let (recovered, report) = MapService::recover(dir.clone(), MapBuilder::new(RES)).unwrap();
    assert!(report.checkpoint_epoch.is_some());
    assert_eq!(report.replayed_batches, 2, "{report:?}");
    assert!(!report.truncated_tail, "{report:?}");
    assert_eq!(
        recovered.snapshot().canonical_leaves(),
        serial_replay(&stream, 5)
    );
    // Recovery folded everything into a fresh checkpoint.
    assert_eq!(recovered.health().last_checkpoint_seq, Some(5));
    recovered.shutdown().unwrap();

    // Recovering *again* (a crash loop) loses no ground and replays
    // nothing: the recovery checkpoint covers it all.
    let (again, report) = MapService::recover(dir.clone(), MapBuilder::new(RES)).unwrap();
    assert_eq!(report.replayed_batches, 0);
    assert_eq!(
        again.snapshot().canonical_leaves(),
        serial_replay(&stream, 5)
    );
    again.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer panic is captured as a typed error — retrievable from the
/// live handle, never swallowed by `Drop`'s join.
#[test]
fn writer_panic_surfaces_typed_not_swallowed() {
    let service = MapService::spawn(MapBuilder::new(RES)).unwrap();
    service.debug_panic_writer().unwrap();
    // The next round trip fails: the writer is gone mid-unwind.
    assert!(service.flush().is_err());
    // The flush ack can drop mid-unwind, before the panic is recorded;
    // `is_shut_down` and the typed error are set under one lock, so
    // once the flag reads true the error is there.
    while !service.is_shut_down() {
        std::thread::yield_now();
    }
    let e = service.take_writer_error();
    assert!(
        matches!(e, Some(MapError::WorkerPanicked(_))),
        "expected a typed panic, got {e:?}"
    );
    assert!(service.is_shut_down());
    // Taken is taken: a second read is empty.
    assert!(service.take_writer_error().is_none());

    // And the un-taken path: `shutdown` itself reports the panic.
    let service = MapService::spawn(MapBuilder::new(RES)).unwrap();
    service.debug_panic_writer().unwrap();
    let _ = service.flush();
    let e = service.shutdown().unwrap_err();
    assert!(
        matches!(e, MapError::WorkerPanicked(_)),
        "shutdown swallowed the panic: {e:?}"
    );
}

/// Spawning fresh into a directory that already holds durable state is
/// refused — it would silently shadow the recoverable map.
#[test]
fn spawn_refuses_nonempty_durability_directory() {
    let dir = temp_dir("nonempty", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let stream = scans(5, 1);
    let service =
        MapService::spawn(MapBuilder::new(RES).durability(&dir, DurabilityPolicy::Manual)).unwrap();
    service
        .ingest_points(stream[0].0, stream[0].1.clone())
        .unwrap();
    service.flush().unwrap();
    service.shutdown().unwrap();

    let e = MapService::spawn(MapBuilder::new(RES).durability(&dir, DurabilityPolicy::Manual))
        .unwrap_err();
    assert!(
        e.to_string().contains("MapService::recover"),
        "unhelpful refusal: {e}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
