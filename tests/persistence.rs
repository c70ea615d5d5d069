//! Serialization across crates: maps built from dataset scans survive a
//! byte round-trip on both value representations, and the wire formats
//! (`.omut` maps and WAL segments) stay byte-stable against goldens.

use std::path::{Path, PathBuf};

use omu::datasets::DatasetKind;
use omu::geometry::{Point3, PointCloud, Scan};
use omu::map::{DurabilityPolicy, MapBuilder, MapService};
use omu::octree::{DeserializeError, OctreeF32, OctreeFixed};
use omu::raycast::IntegrationMode;

fn build<TreeInit>(init: TreeInit) -> Vec<u8>
where
    TreeInit: FnOnce(f64) -> Vec<u8>,
{
    init(0.2)
}

#[test]
fn float_map_roundtrips_through_bytes() {
    let bytes = build(|res| {
        let dataset = DatasetKind::Fr079Corridor.build_scaled(0.016);
        let mut tree = OctreeF32::new(res).unwrap();
        tree.set_integration_mode(IntegrationMode::Raywise);
        tree.set_max_range(Some(dataset.spec().max_range));
        for scan in dataset.scans() {
            tree.insert_scan(&scan).unwrap();
        }
        let encoded = tree.to_bytes();
        let restored = OctreeF32::from_bytes(&encoded).unwrap();
        assert_eq!(restored.snapshot(), tree.snapshot());
        assert_eq!(restored.num_nodes(), tree.num_nodes());
        // Queries survive.
        for p in [
            Point3::new(0.5, 0.0, 0.0),
            Point3::new(3.0, 1.0, 0.5),
            Point3::new(-5.0, -1.0, -0.5),
        ] {
            assert_eq!(
                restored.occupancy_at(p).unwrap(),
                tree.occupancy_at(p).unwrap()
            );
        }
        encoded
    });
    assert!(bytes.len() > 10_000, "a real map serializes to real bytes");
}

#[test]
fn fixed_map_roundtrips_through_bytes() {
    let dataset = DatasetKind::NewCollege.build_scaled(0.0005);
    let mut tree = OctreeFixed::new(0.2).unwrap();
    tree.set_max_range(Some(dataset.spec().max_range));
    for scan in dataset.scans() {
        tree.insert_scan(&scan).unwrap();
    }
    let restored = OctreeFixed::from_bytes(&tree.to_bytes()).unwrap();
    assert_eq!(restored.snapshot(), tree.snapshot());
}

/// Golden bytes emitted by the pre-sibling-row (block-arena) layout for
/// a deterministic f32 scan workload; see `tests/golden/`.
const GOLDEN_F32: &[u8] = include_bytes!("golden/map_f32_v1.omut");
/// Same, for a fixed-point update workload with pruning and misses.
const GOLDEN_FIXED: &[u8] = include_bytes!("golden/map_fixed_v1.omut");

/// Rebuilds the exact map the f32 golden snapshot was generated from.
fn golden_f32_workload() -> OctreeF32 {
    use omu::geometry::PointCloud;
    use omu::geometry::Scan;
    let mut t = OctreeF32::new(0.05).unwrap();
    let mut cloud = PointCloud::new();
    for i in 0..400 {
        let a = i as f64 * 0.0157;
        cloud.push(Point3::new(
            3.0 * a.cos(),
            3.0 * a.sin(),
            ((i % 16) as f64 - 8.0) * 0.1,
        ));
    }
    for step in 0..4 {
        let origin = Point3::new(0.02 * step as f64, 0.01 * step as f64, 0.0);
        t.insert_scan(&Scan::new(origin, cloud.clone())).unwrap();
    }
    t
}

/// Rebuilds the exact map the fixed-point golden snapshot was generated
/// from.
fn golden_fixed_workload() -> OctreeFixed {
    use omu::geometry::VoxelKey;
    let mut t = OctreeFixed::new(0.1).unwrap();
    t.set_early_abort_saturated(false);
    for i in 0..300u16 {
        let k = VoxelKey::new(
            32000 + (i * 7) % 97,
            33000 + (i * 13) % 89,
            31000 + (i * 3) % 53,
        );
        t.update_key(k, i % 4 != 0);
    }
    let base = VoxelKey::new(40000, 40000, 40000);
    for _ in 0..10 {
        for i in 0..8u16 {
            t.update_key(
                VoxelKey::new(
                    base.x + (i & 1),
                    base.y + ((i >> 1) & 1),
                    base.z + ((i >> 2) & 1),
                ),
                true,
            );
        }
    }
    t
}

#[test]
fn wire_format_is_byte_stable_against_block_arena_goldens() {
    // The sibling-row layout must emit byte-for-byte what the old
    // block-arena layout emitted for the same update sequences…
    let f = golden_f32_workload();
    assert_eq!(f.to_bytes(), GOLDEN_F32, "f32 wire format drifted");
    let q = golden_fixed_workload();
    assert_eq!(q.to_bytes(), GOLDEN_FIXED, "fixed wire format drifted");

    // …and maps saved by the old layout must load and re-save stably.
    let restored = OctreeF32::from_bytes(GOLDEN_F32).unwrap();
    assert_eq!(restored.snapshot(), f.snapshot());
    assert_eq!(restored.to_bytes(), GOLDEN_F32, "re-encode not stable");
    restored.debug_validate();

    let restored = OctreeFixed::from_bytes(GOLDEN_FIXED).unwrap();
    assert_eq!(restored.snapshot(), q.snapshot());
    assert_eq!(restored.to_bytes(), GOLDEN_FIXED, "re-encode not stable");
    restored.debug_validate();
}

#[test]
fn corrupted_maps_are_rejected_not_misread() {
    let mut tree = OctreeF32::new(0.2).unwrap();
    tree.update_point(Point3::new(1.0, 1.0, 1.0), true).unwrap();
    let bytes = tree.to_bytes();

    // Flipping the magic is detected.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert_eq!(
        OctreeF32::from_bytes(&bad).unwrap_err(),
        DeserializeError::BadMagic
    );

    // Any truncation is detected.
    for cut in [4, 10, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            OctreeF32::from_bytes(&bytes[..cut]).is_err(),
            "cut at {cut}"
        );
    }

    // Garbage appended is detected.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[1, 2, 3]);
    assert!(OctreeF32::from_bytes(&padded).is_err());
}

/// A WAL segment written by the contiguous-frame encoder that the
/// durable thread's streaming writer replaced: one record per batch of
/// [`golden_wal_batches`].
const GOLDEN_WAL: &[u8] = include_bytes!("golden/wal_v1.log");

/// Map resolution of the service that journals the WAL golden.
const WAL_RES: f64 = 0.1;

/// The scan batches `wal_v1.log` journals, one record each: several
/// scans; an empty scan beside a short one; one scan of 3,072 points,
/// whose 73.8 kB record is larger than the durable thread's 64 KiB write
/// buffer. Plain arithmetic, so the bytes match on every platform.
fn golden_wal_batches() -> Vec<Vec<Scan>> {
    let fan = |origin: Point3, n: usize, step: f64| {
        let points = (0..n)
            .map(|i| {
                Point3::new(
                    1.0 + step * i as f64,
                    -0.5 + 0.0625 * (i % 17) as f64,
                    0.125 * (i % 5) as f64,
                )
            })
            .collect::<PointCloud>();
        Scan::new(origin, points)
    };
    vec![
        vec![
            fan(Point3::new(0.01, 0.01, 0.01), 5, 0.1),
            fan(Point3::new(0.25, -0.5, 0.0), 7, 0.05),
            fan(Point3::new(-0.3, 0.2, 0.1), 4, 0.2),
        ],
        vec![
            Scan::new(Point3::new(0.5, 0.5, 0.0), PointCloud::new()),
            fan(Point3::ZERO, 3, 0.3),
        ],
        vec![fan(Point3::new(0.01, 0.02, 0.03), 3_072, 0.001)],
    ]
}

fn wal_temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("omu_persistence_{tag}_{}", std::process::id()))
}

/// The first segment's file name (records from batch 0 on).
const FIRST_SEGMENT: &str = "wal-00000000000000000000.log";

/// Journals `batches` through a fresh durable service in `dir` and
/// returns the segment's bytes, or `None` when the writer split a batch
/// across two records. Each batch is queued while the writer is parked,
/// so it drains as one record unless the writer woke early and drained
/// a prefix with the park command; that costs the batch a second
/// publish, which is how a split is seen.
fn journal(dir: &Path, batches: &[Vec<Scan>]) -> Option<Vec<u8>> {
    let _ = std::fs::remove_dir_all(dir);
    let service =
        MapService::spawn(MapBuilder::new(WAL_RES).durability(dir, DurabilityPolicy::Manual))
            .unwrap();
    let mut split = false;
    for batch in batches {
        let before = service.service_stats().publishes;
        let release = service.debug_stall_writer().unwrap();
        for scan in batch {
            service.ingest(scan.clone()).unwrap();
        }
        drop(release);
        service.flush().unwrap();
        split |= service.service_stats().publishes - before != 1;
    }
    service.shutdown().unwrap();
    let bytes = std::fs::read(dir.join(FIRST_SEGMENT)).unwrap();
    let _ = std::fs::remove_dir_all(dir);
    (!split).then_some(bytes)
}

#[test]
fn wal_records_are_byte_stable_against_the_golden() {
    let dir = wal_temp_dir("wal_golden");
    let batches = golden_wal_batches();
    let bytes = (0..8)
        .find_map(|_| journal(&dir, &batches))
        .expect("the writer split a batch in 8 runs out of 8");
    let first_diff = bytes.iter().zip(GOLDEN_WAL).position(|(a, b)| a != b);
    assert!(
        bytes == GOLDEN_WAL,
        "WAL format drifted: {} bytes against the golden's {}, first difference at {first_diff:?}",
        bytes.len(),
        GOLDEN_WAL.len()
    );
}

#[test]
fn recovery_from_the_wal_golden_equals_serial_replay() {
    let dir = wal_temp_dir("wal_golden_recover");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(FIRST_SEGMENT), GOLDEN_WAL).unwrap();
    let (recovered, report) = MapService::recover(dir.clone(), MapBuilder::new(WAL_RES)).unwrap();
    assert_eq!(report.checkpoint_epoch, None);
    assert_eq!(report.replayed_batches, 3, "{report:?}");
    assert!(!report.truncated_tail, "{report:?}");

    let mut serial = MapBuilder::new(WAL_RES).build().unwrap();
    for scan in golden_wal_batches().iter().flatten() {
        serial.insert(scan).unwrap();
    }
    assert_eq!(recovered.snapshot().canonical_leaves(), serial.snapshot());
    recovered.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
