//! Crash-safe durability: seeded crash/recovery property tests, the
//! checksum corruption corpus, backpressure, and graceful degradation.
//!
//! The core property: however a durable [`MapService`] dies — torn WAL
//! tail, injected storage faults, a writer killed mid-batch — recovery
//! reconstructs a map **bit-identical to a serial replay of the scan
//! prefix that survived on disk**, and reports exactly what it cut.
//!
//! The WAL's own properties ride along: records stream to disk in
//! appends no larger than the durable thread's 64 KiB buffer, a record
//! torn between two of its appends is cut, and the segment decoder is
//! total under a seeded mutation suite (truncations, bit flips, inflated
//! length prefixes, CRC-valid malformed records, spliced segments).
//!
//! Runs are seeded; set `OMU_DURABILITY_SEED` (decimal or `0x` hex) to
//! reproduce a failing run. CI re-runs this file in `--release` with
//! the seed pinned, which also raises the seed count.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use omu::geometry::{Point3, PointCloud, Scan};
use omu::map::{
    DurabilityPolicy, DurableDir, DurableFile, FaultKind, FaultPlan, FaultyDir, MapBuilder,
    MapError, MapService, RealDir,
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

/// The durable thread's record buffer: no WAL append may exceed it.
const WAL_BUFFER_BYTES: usize = 64 * 1024;

/// One scan of `count` seeded points within 0.6 m of the origin, so a
/// large record stays cheap to integrate.
fn dense_scan(seed: u64, count: usize) -> (Point3, Vec<Point3>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..count)
        .map(|_| {
            Point3::new(
                rng.random_range(-0.6..0.6),
                rng.random_range(-0.6..0.6),
                rng.random_range(-0.6..0.6),
            )
        })
        .collect();
    (Point3::new(0.01, 0.01, 0.01), points)
}

/// A [`DurableDir`] over a real directory that records every WAL
/// append's size, and each sync as `None`.
#[derive(Debug)]
struct RecordingDir {
    inner: RealDir,
    log: Arc<Mutex<Vec<Option<usize>>>>,
}

struct RecordingFile {
    inner: Box<dyn DurableFile>,
    log: Arc<Mutex<Vec<Option<usize>>>>,
}

impl DurableFile for RecordingFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.log.lock().unwrap().push(Some(data.len()));
        self.inner.append(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.log.lock().unwrap().push(None);
        self.inner.sync()
    }
}

impl DurableDir for RecordingDir {
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(name, bytes)
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn DurableFile>> {
        Ok(Box::new(RecordingFile {
            inner: self.inner.open_append(name)?,
            log: Arc::clone(&self.log),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

/// The WAL writes a ~1.9 MB record in appends of at most one buffer,
/// every one but the last exactly full, then syncs once, and the bytes
/// it appended form one valid record. A 24-point record stays one
/// append.
#[test]
fn large_records_stream_in_bounded_appends() {
    let dir = temp_dir("bounded_appends", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let log = Arc::new(Mutex::new(Vec::new()));
    let store = RecordingDir {
        inner: RealDir::create(&dir).unwrap(),
        log: Arc::clone(&log),
    };
    let service = MapService::spawn(
        MapBuilder::new(RES).durability_store(Arc::new(store), DurabilityPolicy::Manual),
    )
    .unwrap();
    let mut stream = scans(17, 1);
    stream.push(dense_scan(17, 80_000));
    for (origin, points) in &stream {
        service.ingest_points(*origin, points.clone()).unwrap();
        service.flush().unwrap();
    }
    service.shutdown().unwrap();

    let small = 8 + 12 + 28 + 24 * 24;
    let large = 8 + 12 + 28 + 80_000 * 24;
    let mut expected = vec![Some(small), None];
    expected.extend(std::iter::repeat_n(
        Some(WAL_BUFFER_BYTES),
        large / WAL_BUFFER_BYTES,
    ));
    expected.extend([Some(large % WAL_BUFFER_BYTES), None]);
    assert_eq!(
        *log.lock().unwrap(),
        expected,
        "appends (Some) and syncs (None)"
    );

    let segment = std::fs::read(dir.join("wal-00000000000000000000.log")).unwrap();
    assert_eq!(segment.len(), small + large);
    let (recovered, report) = MapService::recover(dir.clone(), MapBuilder::new(RES)).unwrap();
    assert_eq!(report.replayed_batches, 2, "{report:?}");
    assert!(!report.truncated_tail, "{report:?}");
    assert_eq!(
        recovered.snapshot().canonical_leaves(),
        serial_replay(&stream, 2)
    );
    recovered.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A short write on the second append of a multi-append record tears
/// the record: recovery replays exactly the batches before it and
/// reports the cut.
#[test]
fn a_record_torn_between_its_appends_is_cut() {
    let dir = temp_dir("torn_between_appends", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let mut stream = scans(23, 3);
    stream.push(dense_scan(23, 6_000));
    // Ops: append + sync per 24-point batch (0..6), then the large
    // record's first append (6) and its second (7), which tears.
    let plan = FaultPlan::new().fail_at(7, FaultKind::ShortWrite);
    let store: Arc<dyn DurableDir> = Arc::new(FaultyDir::new(
        Arc::new(RealDir::create(&dir).unwrap()),
        plan,
    ));
    let service =
        MapService::spawn(MapBuilder::new(RES).durability_store(store, DurabilityPolicy::Manual))
            .unwrap();
    for (origin, points) in &stream {
        service.ingest_points(*origin, points.clone()).unwrap();
        service.flush().unwrap();
    }
    let failed = service.health().wal_failed;
    assert!(
        failed
            .as_deref()
            .is_some_and(|e| e.contains("short append")),
        "the short write did not hit the large record: {failed:?}"
    );
    drop(service);

    let segment = std::fs::read(dir.join("wal-00000000000000000000.log")).unwrap();
    let small = 3 * (8 + 12 + 28 + 24 * 24);
    assert_eq!(
        segment.len(),
        small + WAL_BUFFER_BYTES + WAL_BUFFER_BYTES / 2
    );
    let (recovered, report) = MapService::recover(dir.clone(), MapBuilder::new(RES)).unwrap();
    assert_eq!(report.replayed_batches, 3, "{report:?}");
    assert!(report.truncated_tail, "{report:?}");
    assert_eq!(
        recovered.snapshot().canonical_leaves(),
        serial_replay(&stream, 3)
    );
    recovered.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL golden `tests/persistence.rs` pins: records for batches 0–2,
/// the last larger than one buffer.
const GOLDEN_WAL: &[u8] = include_bytes!("golden/wal_v1.log");

/// One replayed scan: its record's batch sequence number, origin and
/// points.
type Replayed = (u64, Point3, Vec<Point3>);

/// Decodes `segment` through the recovery reader. Returns the records
/// replayed, whether bytes were cut, and the scans in replay order, and
/// checks the reader's one allocation, the caller's point buffer,
/// against the input length.
fn decode(segment: &[u8]) -> (u64, bool, Vec<Replayed>) {
    let mut points = Vec::new();
    let mut scans = Vec::new();
    let (records, torn) = omu::map::debug_replay_wal_segment(segment, &mut points, |seq, o, p| {
        scans.push((seq, o, p.to_vec()))
    });
    let held = points.capacity() * std::mem::size_of::<Point3>();
    assert!(
        held <= 2 * segment.len(),
        "the point buffer holds {held} B for a {} B segment",
        segment.len()
    );
    (records, torn, scans)
}

/// The record end offsets of a pristine segment, walked by its length
/// prefixes.
fn record_ends(segment: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at < segment.len() {
        let len = u32::from_le_bytes(segment[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        ends.push(at);
    }
    assert_eq!(at, segment.len(), "pristine segments end on a record");
    ends
}

/// A pristine segment, its record ends, and its scans grouped by record.
struct Pristine {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    records: Vec<Vec<Replayed>>,
}

impl Pristine {
    fn new(bytes: Vec<u8>) -> Self {
        let ends = record_ends(&bytes);
        let (count, torn, scans) = decode(&bytes);
        assert_eq!((count, torn), (ends.len() as u64, false));
        let mut records: Vec<Vec<Replayed>> = Vec::new();
        for scan in scans {
            match records.last_mut() {
                Some(r) if r[0].0 == scan.0 => r.push(scan),
                _ => records.push(vec![scan]),
            }
        }
        assert_eq!(records.len(), ends.len(), "one seq per record");
        Pristine {
            bytes,
            ends,
            records,
        }
    }

    /// The record holding byte `at`.
    fn record_at(&self, at: usize) -> usize {
        self.ends.partition_point(|&end| end <= at)
    }

    /// Where record `k` starts.
    fn start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.ends[k - 1]
        }
    }

    /// Asserts that `mutant` replays exactly this segment's first `k`
    /// records and reports a cut exactly when `torn`.
    fn expect(&self, mutant: &[u8], k: usize, torn: bool, what: &str) {
        let (count, cut, scans) = decode(mutant);
        assert_eq!((count, cut), (k as u64, torn), "{what}");
        assert_eq!(scans, self.records[..k].concat(), "{what}");
    }

    /// The bytes with record `k` re-framed after `mutate` edited its
    /// payload: length and CRC recomputed, so only the structure check
    /// can reject it.
    fn reseal(&self, k: usize, mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let (start, end) = (self.start(k), self.ends[k]);
        let mut payload = self.bytes[start + 8..end].to_vec();
        mutate(&mut payload);
        let mut out = self.bytes[..start].to_vec();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&omu::octree::crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&self.bytes[end..]);
        out
    }
}

/// Journals `stream` one batch per scan with a manual checkpoint after
/// batch `rotate_at`, which rotates the log. Returns the two segments'
/// bytes: batches `0..rotate_at` and `rotate_at..`.
fn two_segments(
    stream: &[(Point3, Vec<Point3>)],
    rotate_at: usize,
    seed: u64,
) -> (Vec<u8>, Vec<u8>) {
    let dir = temp_dir("mutation_source", seed);
    let _ = std::fs::remove_dir_all(&dir);
    let service =
        MapService::spawn(MapBuilder::new(RES).durability(&dir, DurabilityPolicy::Manual)).unwrap();
    let mut first = Vec::new();
    for (i, (origin, points)) in stream.iter().enumerate() {
        if i == rotate_at {
            // The checkpoint retires the first segment; keep its bytes.
            first = std::fs::read(dir.join("wal-00000000000000000000.log")).unwrap();
            service.checkpoint().unwrap();
        }
        service.ingest_points(*origin, points.clone()).unwrap();
        service.flush().unwrap();
    }
    service.shutdown().unwrap();
    let second = std::fs::read(dir.join(format!("wal-{rotate_at:020}.log"))).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (first, second)
}

/// Recovers from a directory holding only `segment` as the first WAL
/// segment, and checks that it replayed exactly `pristine`'s first `k`
/// records, reporting a truncated tail exactly when `torn`.
fn expect_recovery(pristine: &Pristine, segment: &[u8], k: usize, torn: bool, what: &str) {
    let dir = temp_dir("mutation_recover", 0);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal-00000000000000000000.log"), segment).unwrap();
    let (recovered, report) = MapService::recover(dir.clone(), MapBuilder::new(RES)).unwrap();
    assert_eq!(
        (report.replayed_batches, report.truncated_tail),
        (k as u64, torn),
        "{what}"
    );
    let mut serial = MapBuilder::new(RES).build().unwrap();
    for (_, origin, points) in pristine.records[..k].concat() {
        serial.insert_points(origin, &points).unwrap();
    }
    assert_eq!(
        recovered.snapshot().canonical_leaves(),
        serial.snapshot(),
        "{what}"
    );
    recovered.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL decoder is total. Over the golden and a generated stream,
/// every truncation, seeded bit flips, length prefixes inflated to
/// `u32::MAX`, CRC-valid records with corrupt counts and spliced
/// segments never panic, replay only a prefix of the original records,
/// flag a cut exactly when bytes were cut, and never hold a point
/// buffer larger than twice the input.
#[test]
fn wal_decoder_is_total_under_seeded_mutations() {
    let base = base_seed();
    let mut rng = StdRng::seed_from_u64(base ^ 0x3A1_F022);
    let stream = scans(base, rng.random_range(6..10));
    let rotate_at = 4;
    let (first, second) = two_segments(&stream, rotate_at, base);
    let chain = Pristine::new([first.clone(), second].concat());
    assert_eq!(chain.records.len(), stream.len());
    for (seq, (record, (origin, points))) in chain.records.iter().zip(&stream).enumerate() {
        assert_eq!(record, &[(seq as u64, *origin, points.clone())]);
    }
    let golden = Pristine::new(GOLDEN_WAL.to_vec());
    let generated = Pristine::new(first);

    for source in [&golden, &generated] {
        let bytes = &source.bytes;
        for cut in 0..=bytes.len() {
            let k = source.record_at(cut);
            source.expect(&bytes[..cut], k, cut != source.start(k), "truncation");
        }
        for _ in 0..seed_count() * 8 {
            let at = rng.random_range(0..bytes.len());
            let mut mutant = bytes.clone();
            mutant[at] ^= 1 << rng.random_range(0..8u32);
            source.expect(&mutant, source.record_at(at), true, "bit flip");
        }
        for k in 0..source.ends.len() {
            let mut mutant = bytes.clone();
            let at = source.start(k);
            mutant[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            source.expect(&mutant, k, true, "inflated length prefix");
            // Payload offsets: scan count at 8, the first scan's point
            // count at 36. Each edit leaves bytes missing or left over.
            let set = |at: usize, value: u32| {
                move |p: &mut Vec<u8>| p[at..at + 4].copy_from_slice(&value.to_le_bytes())
            };
            let scan_count =
                u32::from_le_bytes(bytes[source.start(k) + 16..][..4].try_into().unwrap());
            let mutants = [
                source.reseal(k, set(8, u32::MAX)),
                source.reseal(k, set(8, scan_count + 1)),
                source.reseal(k, set(8, scan_count - 1)),
                source.reseal(k, set(36, u32::MAX)),
                source.reseal(k, |p| p.push(0)),
            ];
            for mutant in mutants {
                source.expect(&mutant, k, true, "CRC-valid malformed record");
            }
        }
    }

    // Recovery's view of the same mutants: a cut record is cut whole,
    // and `truncated_tail` is set exactly when bytes were cut.
    let cut = golden.ends[1] + 100;
    expect_recovery(
        &golden,
        &GOLDEN_WAL[..cut],
        2,
        true,
        "golden torn in record 2",
    );
    let malformed = generated.reseal(2, |p| p.push(0));
    expect_recovery(&generated, &malformed, 2, true, "trailing byte in record 2");

    // Spliced segments: the head of the first segment (or of the golden)
    // followed by the tail of the second, each cut on a record boundary
    // half of the time, so CRC-valid records meet at the seam. The second
    // segment's records start at batch `rotate_at`, so they continue the
    // chain only when the head is the whole first segment and the tail
    // the whole second one; anything else is cut at the seam, by the
    // frame check or by recovery's sequence check.
    let second_start = chain.start(rotate_at);
    let second = &chain.bytes[second_start..];
    let second_ends: Vec<usize> = chain.ends[rotate_at - 1..]
        .iter()
        .map(|end| end - second_start)
        .collect();
    expect_recovery(&chain, &chain.bytes, chain.ends.len(), false, "whole chain");
    let skipped = [generated.bytes.as_slice(), &second[second_ends[1]..]].concat();
    expect_recovery(
        &chain,
        &skipped,
        rotate_at,
        true,
        "a record skipped at the seam",
    );
    for _ in 0..seed_count() {
        let head = if rng.random_bool(0.5) {
            &generated
        } else {
            &golden
        };
        let mut cut = |ends: &[usize], len: usize| {
            if rng.random_bool(0.5) {
                ends[rng.random_range(0..ends.len())]
            } else {
                rng.random_range(0..=len)
            }
        };
        let head_len = cut(&[&[0][..], &head.ends].concat(), head.bytes.len());
        let from = cut(&second_ends, second.len());
        let spliced = [&head.bytes[..head_len], &second[from..]].concat();
        let whole = std::ptr::eq(head, &generated) && head_len == head.bytes.len() && from == 0;
        let (source, k) = if whole {
            (&chain, chain.ends.len())
        } else {
            (head, head.record_at(head_len))
        };
        let torn = spliced.len() > source.start(k);
        expect_recovery(
            source,
            &spliced,
            k,
            torn,
            &format!("splice at {head_len}/{from}"),
        );
    }
}
